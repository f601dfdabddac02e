//! The `xspd` wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message is one frame: a 5-byte header — one [`FrameKind`] byte
//! plus a big-endian `u32` payload length — followed by the payload.
//! Control payloads (open/flush/export/close and every response) are JSON
//! documents; the bulk ingestion path ([`FrameKind::Append`]) carries an
//! 8-byte big-endian session id followed by raw span-JSON-lines or `.xspb`,
//! so span batches move through the daemon in exactly the interchange
//! formats the offline tooling already reads.
//!
//! The reader is deliberately paranoid: payload lengths are bounded by
//! [`MAX_PAYLOAD`] *before* any allocation, an unknown kind byte poisons
//! the connection, and EOF is classified as clean (between frames) or torn
//! (mid-frame) so the server can distinguish a polite disconnect from a
//! crashed client. Read timeouts surface as [`FrameError::TimedOut`]
//! without losing partially-received bytes — the server polls its
//! connections this way to notice shutdown.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload (16 MiB). Large enough for ~40k spans
/// per append batch, small enough that a corrupt length prefix cannot make
/// the daemon allocate the universe.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Export responses stream the serialized profile in chunks of this size.
pub const DATA_CHUNK: usize = 64 * 1024;

/// Frame header length: kind byte + big-endian u32 payload length.
pub const HEADER_LEN: usize = 5;

/// The frame type byte. Requests have the high bit clear, responses set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Open a session. JSON payload: `{"sink": path?, "quota": n?,
    /// "on_full": "shed"|"block"?, "model": name?}`. The model is resolved
    /// against the zoo with the CLI's forgiving lookup; an unknown name is
    /// refused with an `unknown_model` error listing the nearest entries.
    /// Response: `Ok {"session": id, "model": resolved?}`.
    Open = 0x01,
    /// Append spans. Payload: 8-byte BE session id + span-JSON-lines or
    /// `.xspb`.
    /// Response: `Ok {"resident", "total", "spilled"}` or `Err`.
    Append = 0x02,
    /// Persist the session's resident spans to its sink (if any). JSON
    /// payload: `{"session": id}`. Response: `Ok` with stats.
    Flush = 0x03,
    /// Export the session's resident spans. JSON payload: `{"session": id,
    /// "format": spelling}`. Response: `Data`* then `End {"bytes": n}`.
    Export = 0x04,
    /// Close the session, flushing to its sink. JSON payload:
    /// `{"session": id}`. Response: `Ok {"total", "spilled", "sink_error"}`.
    Close = 0x05,
    /// Ask the daemon to shut down gracefully (drain all sessions).
    Shutdown = 0x06,
    /// Success response; JSON payload.
    Ok = 0x80,
    /// Failure response; JSON payload `{"code", "message"}`.
    Err = 0x81,
    /// One chunk of an export stream.
    Data = 0x82,
    /// End of an export stream; JSON payload `{"bytes": n}`.
    End = 0x83,
}

impl FrameKind {
    /// Decodes the kind byte of a frame header.
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => FrameKind::Open,
            0x02 => FrameKind::Append,
            0x03 => FrameKind::Flush,
            0x04 => FrameKind::Export,
            0x05 => FrameKind::Close,
            0x06 => FrameKind::Shutdown,
            0x80 => FrameKind::Ok,
            0x81 => FrameKind::Err,
            0x82 => FrameKind::Data,
            0x83 => FrameKind::End,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// The raw payload bytes (possibly empty).
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure.
    Io(io::Error),
    /// The read timed out (socket read timeout); retry [`FrameReader::next_frame`]
    /// — partially received bytes are retained.
    TimedOut,
    /// EOF in the middle of a frame: the peer vanished mid-message.
    Torn {
        /// Bytes of the frame received before the stream ended.
        have: usize,
        /// Bytes the header promised.
        want: usize,
    },
    /// The header announced a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// The announced payload length.
        len: usize,
    },
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::TimedOut => write!(f, "frame read timed out"),
            FrameError::Torn { have, want } => {
                write!(f, "torn frame: stream ended after {have} of {want} bytes")
            }
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {MAX_PAYLOAD} limit"
                )
            }
            FrameError::UnknownKind(b) => write!(f, "unknown frame kind byte 0x{b:02x}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (header + payload) to `w`. The caller flushes.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut header = [0u8; HEADER_LEN];
    header[0] = kind as u8;
    header[1..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Incremental frame decoder over any [`Read`].
///
/// Received bytes are kept across calls, so a read timeout mid-frame
/// ([`FrameError::TimedOut`]) loses nothing: the next
/// [`FrameReader::next_frame`] call resumes where the stream paused. This
/// is what lets the daemon poll connections with a socket read timeout
/// while staying correct against clients that dribble a frame one byte at
/// a time.
///
/// The header is read on its own; once its kind and length pass their
/// checks, the payload is read straight into the `Vec` the frame carries
/// out. That buffer grows only as bytes arrive (by doubling, from 8 KiB)
/// and never past the announced length, so a header announcing a large
/// payload costs nothing until the payload comes.
pub struct FrameReader<R> {
    src: R,
    header: [u8; HEADER_LEN],
    /// Header bytes received for the frame being read.
    have_header: usize,
    /// The payload being read: `filled` bytes received, the rest of its
    /// length zeroed room for the next read.
    payload: Vec<u8>,
    filled: usize,
}

/// The payload buffer's first size, when the frame is at least this long.
const FIRST_READ: usize = 8192;

impl<R: Read> FrameReader<R> {
    /// Wraps `src`.
    pub fn new(src: R) -> Self {
        Self {
            src,
            header: [0; HEADER_LEN],
            have_header: 0,
            payload: Vec::new(),
            filled: 0,
        }
    }

    /// Reads the next frame. `Ok(None)` means the stream ended cleanly at a
    /// frame boundary; any other premature end is [`FrameError::Torn`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        while self.have_header < HEADER_LEN {
            match self.read()? {
                0 if self.have_header == 0 => return Ok(None),
                0 => {
                    return Err(FrameError::Torn {
                        have: self.have_header,
                        want: HEADER_LEN,
                    })
                }
                n => self.have_header += n,
            }
        }
        // The header is validated before any payload allocation.
        let kind =
            FrameKind::from_byte(self.header[0]).ok_or(FrameError::UnknownKind(self.header[0]))?;
        let len = u32::from_be_bytes(self.header[1..].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len });
        }
        while self.filled < len {
            if self.filled == self.payload.len() {
                let room = (2 * self.payload.len()).max(FIRST_READ).min(len);
                self.payload.reserve_exact(room - self.payload.len());
                self.payload.resize(room, 0);
            }
            match self.read()? {
                0 => {
                    return Err(FrameError::Torn {
                        have: HEADER_LEN + self.filled,
                        want: HEADER_LEN + len,
                    })
                }
                n => self.filled += n,
            }
        }
        self.have_header = 0;
        self.filled = 0;
        Ok(Some(Frame {
            kind,
            payload: std::mem::take(&mut self.payload),
        }))
    }

    /// One read into the header's or the payload's free room, retrying
    /// interrupts; a timeout is [`FrameError::TimedOut`].
    fn read(&mut self) -> Result<usize, FrameError> {
        loop {
            let room = if self.have_header < HEADER_LEN {
                &mut self.header[self.have_header..]
            } else {
                &mut self.payload[self.filled..]
            };
            match self.src.read(room) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(FrameError::TimedOut);
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Builds the JSON payload of an `Err` frame.
pub fn err_payload(code: &str, message: &str) -> Vec<u8> {
    let mut doc = serde_json::Map::new();
    doc.insert("code".into(), serde_json::to_value(&code.to_owned()));
    doc.insert("message".into(), serde_json::to_value(&message.to_owned()));
    serde_json::to_string(&serde_json::Value::Object(doc))
        .expect("error payload serialization cannot fail")
        .into_bytes()
}

/// Parses an `Err` frame payload back into `(code, message)`.
pub fn parse_err_payload(payload: &[u8]) -> (String, String) {
    let parse = || -> Option<(String, String)> {
        let v: serde_json::Value = serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()?;
        Some((
            v.get("code")?.as_str()?.to_owned(),
            v.get("message")?.as_str()?.to_owned(),
        ))
    };
    parse().unwrap_or_else(|| ("malformed_error".to_owned(), String::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [
            FrameKind::Open,
            FrameKind::Append,
            FrameKind::Flush,
            FrameKind::Export,
            FrameKind::Close,
            FrameKind::Shutdown,
            FrameKind::Ok,
            FrameKind::Err,
            FrameKind::Data,
            FrameKind::End,
        ] {
            let bytes = encode(kind, b"payload");
            let mut r = FrameReader::new(bytes.as_slice());
            let frame = r.next_frame().unwrap().unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, b"payload");
            assert!(
                r.next_frame().unwrap().is_none(),
                "clean EOF after one frame"
            );
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let mut bytes = encode(FrameKind::Open, b"a");
        bytes.extend(encode(FrameKind::Close, b""));
        let mut r = FrameReader::new(bytes.as_slice());
        assert_eq!(r.next_frame().unwrap().unwrap().kind, FrameKind::Open);
        let close = r.next_frame().unwrap().unwrap();
        assert_eq!(close.kind, FrameKind::Close);
        assert!(close.payload.is_empty());
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn torn_header_is_not_clean_eof() {
        let bytes = encode(FrameKind::Open, b"payload");
        let mut r = FrameReader::new(&bytes[..3]);
        match r.next_frame() {
            Err(FrameError::Torn { have: 3, want }) => assert_eq!(want, HEADER_LEN),
            other => panic!("expected torn frame, got {other:?}"),
        }
    }

    #[test]
    fn torn_payload_reports_promised_length() {
        let bytes = encode(FrameKind::Append, &[7u8; 100]);
        let mut r = FrameReader::new(&bytes[..HEADER_LEN + 40]);
        match r.next_frame() {
            Err(FrameError::Torn { have, want }) => {
                assert_eq!(have, HEADER_LEN + 40);
                assert_eq!(want, HEADER_LEN + 100);
            }
            other => panic!("expected torn frame, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = vec![FrameKind::Append as u8];
        bytes.extend((u32::MAX).to_be_bytes());
        // No payload follows; the bound check must fire on the header alone.
        let mut r = FrameReader::new(bytes.as_slice());
        match r.next_frame() {
            Err(FrameError::Oversized { len }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_poisons_stream() {
        let mut bytes = vec![0x7f];
        bytes.extend(0u32.to_be_bytes());
        let mut r = FrameReader::new(bytes.as_slice());
        match r.next_frame() {
            Err(FrameError::UnknownKind(0x7f)) => {}
            other => panic!("expected unknown kind, got {other:?}"),
        }
    }

    /// A reader that yields its bytes one at a time, interleaving a timeout
    /// before every byte — the worst-case dribble the daemon's polling
    /// loop must survive without dropping buffered bytes.
    struct Dribble {
        bytes: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            self.ready = false;
            if self.pos == self.bytes.len() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn timeouts_between_bytes_lose_nothing() {
        let bytes = encode(FrameKind::Export, b"{\"session\":1}");
        let mut r = FrameReader::new(Dribble {
            bytes: bytes.clone(),
            pos: 0,
            ready: false,
        });
        let mut timeouts = 0usize;
        let frame = loop {
            match r.next_frame() {
                Ok(Some(frame)) => break frame,
                Err(FrameError::TimedOut) => timeouts += 1,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(frame.kind, FrameKind::Export);
        assert_eq!(frame.payload, b"{\"session\":1}");
        assert!(timeouts >= bytes.len(), "one timeout per dribbled byte");
    }

    /// A reader that hands out at most `chunk` bytes per read, then times
    /// out once it has handed out `stop` bytes.
    struct Chunked {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
        stop: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.stop {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            let n = buf.len().min(self.chunk).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn payload_buffer_grows_with_arrivals_and_never_past_the_length() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let bytes = encode(FrameKind::Append, &payload);
        let mut r = FrameReader::new(Chunked {
            bytes: bytes.clone(),
            pos: 0,
            chunk: 4096,
            stop: HEADER_LEN + 100,
        });
        assert!(matches!(r.next_frame(), Err(FrameError::TimedOut)));
        assert_eq!(
            r.payload.capacity(),
            FIRST_READ,
            "100 bytes in, the buffer holds one first read"
        );
        r.src.stop = usize::MAX;
        let frame = r.next_frame().unwrap().unwrap();
        assert_eq!(frame.payload, payload);
        assert_eq!(
            frame.payload.capacity(),
            payload.len(),
            "no room past the length"
        );
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn err_payload_roundtrip() {
        let payload = err_payload("quota_exceeded", "resident 10 of 10");
        let (code, message) = parse_err_payload(&payload);
        assert_eq!(code, "quota_exceeded");
        assert_eq!(message, "resident 10 of 10");
        let (code, _) = parse_err_payload(b"not json");
        assert_eq!(code, "malformed_error");
    }
}
