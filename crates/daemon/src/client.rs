//! In-process client driver for `xspd` — the test suite's harness and the
//! reference implementation of the protocol's client side.
//!
//! One [`DaemonClient`] wraps one connection. Requests are synchronous:
//! each call writes one frame and blocks for the response (`Export`
//! collects the `Data` stream until `End`). The raw escape hatches
//! ([`DaemonClient::send_raw`], [`DaemonClient::send_frame`]) exist for
//! fault injection — torn frames, garbage kinds, oversized headers — which
//! is most of what the daemon test suite does with them.

use crate::protocol::{
    parse_err_payload, write_frame, Frame, FrameError, FrameKind, FrameReader, HEADER_LEN,
};
use crate::session::SessionStats;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use xsp_core::export::ExportFormat;
pub use xsp_trace::export::spans_to_binary;
use xsp_trace::export::SpanJsonLinesWriter;
use xsp_trace::Span;

/// Options for [`DaemonClient::open`].
#[derive(Debug, Clone, Default)]
pub struct OpenOptions {
    /// Sink path the session persists to (spill, flush, close).
    pub sink: Option<String>,
    /// Span quota; daemon default when `None`.
    pub quota: Option<usize>,
    /// Backpressure policy spelling (`"shed"` / `"block"`).
    pub on_full: Option<&'static str>,
    /// Model the session profiles, resolved against the zoo at open
    /// (exact name, or the CLI's forgiving prefix lookup).
    pub model: Option<String>,
}

/// What went wrong with a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The response stream could not be decoded.
    Frame(FrameError),
    /// The daemon answered with an `Err` frame.
    Daemon {
        /// Machine-readable error code (e.g. `quota_exceeded`).
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// The daemon answered with an unexpected frame kind or payload.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon transport error: {e}"),
            ClientError::Frame(e) => write!(f, "daemon response undecodable: {e}"),
            ClientError::Daemon { code, message } => write!(f, "daemon error [{code}]: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The daemon error code, if this is a daemon-reported error.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Daemon { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// Session counters plus the sink's latched error, from flush/close acks.
#[derive(Debug, Clone)]
pub struct Ack {
    /// Counters at ack time.
    pub stats: SessionStats,
    /// The sink's latched write error, if any (flush/close acks only).
    pub sink_error: Option<String>,
}

/// One connection to a running `xspd`.
pub struct DaemonClient {
    writer: UnixStream,
    reader: FrameReader<UnixStream>,
}

impl DaemonClient {
    /// Connects to the daemon socket.
    pub fn connect(socket_path: impl AsRef<Path>) -> io::Result<Self> {
        let stream = UnixStream::connect(socket_path)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: FrameReader::new(stream),
        })
    }

    /// Opens a session; returns its id.
    pub fn open(&mut self, options: &OpenOptions) -> Result<u64, ClientError> {
        self.open_resolved(options).map(|(id, _)| id)
    }

    /// Opens a session; returns its id and the resolved zoo model name
    /// when the options carried one (a prefix open like `"bert-base"`
    /// learns the full entry name from the ack).
    pub fn open_resolved(
        &mut self,
        options: &OpenOptions,
    ) -> Result<(u64, Option<String>), ClientError> {
        let mut doc = serde_json::Map::new();
        if let Some(sink) = &options.sink {
            doc.insert("sink".into(), serde_json::to_value(sink));
        }
        if let Some(quota) = options.quota {
            doc.insert("quota".into(), serde_json::to_value(&(quota as u64)));
        }
        if let Some(on_full) = options.on_full {
            doc.insert("on_full".into(), serde_json::to_value(&on_full.to_owned()));
        }
        if let Some(model) = &options.model {
            doc.insert("model".into(), serde_json::to_value(model));
        }
        let payload = serde_json::to_string(&serde_json::Value::Object(doc))
            .expect("open request serialization cannot fail")
            .into_bytes();
        self.send_frame(FrameKind::Open, &payload)?;
        let ok = self.expect_ok()?;
        let id = ok
            .get("session")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| ClientError::Protocol("open ack lacks a session id".into()))?;
        let model = ok
            .get("model")
            .and_then(|v| v.as_str())
            .map(|s| s.to_owned());
        Ok((id, model))
    }

    /// Appends a span batch to `session` (serialized as span-JSON-lines
    /// by [`spans_to_jsonl`]).
    pub fn append_spans(&mut self, session: u64, spans: &[Span]) -> Result<Ack, ClientError> {
        self.append_raw(session, &spans_to_jsonl(spans))
    }

    /// Appends a span batch to `session` serialized as `.xspb` span binary
    /// — the compact wire encoding; the daemon sniffs the magic bytes, so
    /// binary and JSONL appends interleave freely on one session.
    pub fn append_spans_binary(
        &mut self,
        session: u64,
        spans: &[Span],
    ) -> Result<Ack, ClientError> {
        self.append_raw(session, &spans_to_binary(spans))
    }

    /// Appends raw bytes as the batch body. The daemon sniffs the
    /// encoding, so this carries both encoded appends and fault
    /// injection's corrupt binary and corrupt JSONL.
    pub fn append_raw(&mut self, session: u64, body: &[u8]) -> Result<Ack, ClientError> {
        let mut payload = session.to_be_bytes().to_vec();
        payload.extend_from_slice(body);
        self.send_frame(FrameKind::Append, &payload)?;
        self.expect_ack()
    }

    /// Drains and persists the session.
    pub fn flush(&mut self, session: u64) -> Result<Ack, ClientError> {
        self.send_session_frame(FrameKind::Flush, session)?;
        self.expect_ack()
    }

    /// Exports the session's resident spans; returns the serialized bytes.
    pub fn export(&mut self, session: u64, format: ExportFormat) -> Result<Vec<u8>, ClientError> {
        Ok(self.export_counting_passes(session, format)?.0)
    }

    /// Like [`DaemonClient::export`], additionally returning the session's
    /// lifetime correlation-pass count from the end-of-stream frame — the
    /// observable for daemon-wide export-cache sharing: an export served
    /// from the shared cache adds zero passes to its session.
    pub fn export_counting_passes(
        &mut self,
        session: u64,
        format: ExportFormat,
    ) -> Result<(Vec<u8>, u64), ClientError> {
        let mut doc = serde_json::Map::new();
        doc.insert("session".into(), serde_json::to_value(&session));
        doc.insert(
            "format".into(),
            serde_json::to_value(&format.label().to_owned()),
        );
        let payload = serde_json::to_string(&serde_json::Value::Object(doc))
            .expect("export request serialization cannot fail")
            .into_bytes();
        self.send_frame(FrameKind::Export, &payload)?;
        let mut bytes = Vec::new();
        loop {
            match self.next_response()? {
                Frame {
                    kind: FrameKind::Data,
                    payload,
                } => bytes.extend_from_slice(&payload),
                Frame {
                    kind: FrameKind::End,
                    payload,
                } => {
                    let doc = parse_json(&payload)?;
                    let announced = doc.get("bytes").and_then(|v| v.as_u64()).unwrap_or(0);
                    if announced as usize != bytes.len() {
                        return Err(ClientError::Protocol(format!(
                            "export stream length {} != announced {}",
                            bytes.len(),
                            announced
                        )));
                    }
                    let passes = doc
                        .get("correlation_passes")
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0);
                    return Ok((bytes, passes));
                }
                Frame {
                    kind: FrameKind::Err,
                    payload,
                } => {
                    let (code, message) = parse_err_payload(&payload);
                    return Err(ClientError::Daemon { code, message });
                }
                frame => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {:?} inside an export stream",
                        frame.kind
                    )));
                }
            }
        }
    }

    /// Closes the session, flushing it to its sink.
    pub fn close(&mut self, session: u64) -> Result<Ack, ClientError> {
        self.send_session_frame(FrameKind::Close, session)?;
        self.expect_ack()
    }

    /// Asks the daemon to shut down gracefully.
    pub fn shutdown_daemon(&mut self) -> Result<(), ClientError> {
        self.send_frame(FrameKind::Shutdown, b"{}")?;
        self.expect_ok().map(|_| ())
    }

    /// Writes one well-formed frame without reading a response.
    pub fn send_frame(&mut self, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, kind, payload)?;
        self.writer.flush()
    }

    /// Writes raw bytes to the socket — torn frames, garbage headers.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response frame (blocking through read timeouts).
    pub fn next_response(&mut self) -> Result<Frame, ClientError> {
        loop {
            match self.reader.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {
                    return Err(ClientError::Protocol(
                        "daemon closed the connection mid-request".into(),
                    ));
                }
                Err(FrameError::TimedOut) => continue,
                Err(e) => return Err(ClientError::Frame(e)),
            }
        }
    }

    /// Shuts down the write half so the daemon sees EOF, keeping the read
    /// half open (disconnect-mid-stream fault injection).
    pub fn shutdown_write(&self) -> io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }

    fn send_session_frame(&mut self, kind: FrameKind, session: u64) -> io::Result<()> {
        let mut doc = serde_json::Map::new();
        doc.insert("session".into(), serde_json::to_value(&session));
        let payload = serde_json::to_string(&serde_json::Value::Object(doc))
            .expect("session request serialization cannot fail")
            .into_bytes();
        self.send_frame(kind, &payload)
    }

    fn expect_ok(&mut self) -> Result<serde_json::Value, ClientError> {
        match self.next_response()? {
            Frame {
                kind: FrameKind::Ok,
                payload,
            } => parse_json(&payload),
            Frame {
                kind: FrameKind::Err,
                payload,
            } => {
                let (code, message) = parse_err_payload(&payload);
                Err(ClientError::Daemon { code, message })
            }
            frame => Err(ClientError::Protocol(format!(
                "expected Ok/Err, got {:?}",
                frame.kind
            ))),
        }
    }

    fn expect_ack(&mut self) -> Result<Ack, ClientError> {
        let doc = self.expect_ok()?;
        let field = |name: &str| doc.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
        Ok(Ack {
            stats: SessionStats {
                resident: field("resident") as usize,
                total: field("total"),
                spilled: field("spilled"),
            },
            sink_error: doc
                .get("sink_error")
                .and_then(|v| v.as_str())
                .map(str::to_owned),
        })
    }
}

fn parse_json(payload: &[u8]) -> Result<serde_json::Value, ClientError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ClientError::Protocol("response payload is not UTF-8".into()))?;
    serde_json::from_str(text)
        .map_err(|e| ClientError::Protocol(format!("response payload is not JSON: {e}")))
}

/// Serializes spans to span-JSON-lines bytes — the batch body
/// [`DaemonClient::append_spans`] puts on the wire.
pub fn spans_to_jsonl(spans: &[Span]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = SpanJsonLinesWriter::new(&mut out);
    for span in spans {
        w.write_span(span).expect("writing to a Vec cannot fail");
    }
    w.finish().expect("writing to a Vec cannot fail");
    out
}

/// Builds a torn frame: a valid header announcing `announced` payload
/// bytes followed by only `sent` of them (fault-injection helper).
pub fn torn_frame(kind: FrameKind, announced: u32, sent: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + sent);
    bytes.push(kind as u8);
    bytes.extend(announced.to_be_bytes());
    bytes.extend(std::iter::repeat(0u8).take(sent));
    bytes
}
