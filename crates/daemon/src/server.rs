//! The resident daemon: a Unix-socket listener multiplexing profiling
//! sessions, each with its own resident span store.
//!
//! One accept thread polls the (non-blocking) listener; every connection
//! gets its own handler thread reading frames with a socket read timeout,
//! so shutdown and idle reaping never wait on a silent client. Sessions
//! live in a shared registry keyed by id — any connection may address any
//! session, which is what allows one client to append while another
//! exports (the registry hands out `Arc<Mutex<Session>>`, making
//! flush-vs-export races a lock acquisition, not a data race).
//!
//! Robustness contract:
//! * torn/oversized/unknown frames poison only their connection — the
//!   server answers with an `Err` frame when the transport still works,
//!   tears down the connection's sessions, and keeps serving others;
//! * a client disconnect (clean or torn) closes the sessions that
//!   connection opened, flushing them to their sinks (crash-safe teardown);
//! * sessions idle past the configured timeout are reaped and flushed by
//!   the accept thread; later frames addressing them get
//!   `session_expired`, not `unknown_session`;
//! * shutdown (API, `Shutdown` frame, or SIGTERM in the binary) stops
//!   accepting, joins every connection, then drains every surviving
//!   session to its sink before the socket file is removed.

use crate::protocol::{
    err_payload, write_frame, Frame, FrameError, FrameKind, FrameReader, DATA_CHUNK, MAX_PAYLOAD,
};
use crate::session::{ExportCache, OnFull, Session, SessionError, SessionStats, DEFAULT_QUOTA};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsp_core::export::{ExportFormat, ExportSink};

/// Capacity of the process-wide export byte cache (finished exports, all
/// sessions, all formats). FIFO-evicted per shard once full.
const EXPORT_CACHE_CAPACITY: usize = 64;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket_path: PathBuf,
    /// Span quota for sessions whose open request names none.
    pub default_quota: usize,
    /// Sessions idle longer than this are reaped (flushed + expired).
    pub idle_timeout: Duration,
    /// Listener/connection poll granularity: the accept loop sleeps this
    /// long between polls and connections use it as their read timeout.
    /// Bounds how stale a shutdown or idle check can be.
    pub poll_interval: Duration,
}

impl DaemonConfig {
    /// A config with production defaults at `socket_path`.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        Self {
            socket_path: socket_path.into(),
            default_quota: DEFAULT_QUOTA,
            idle_timeout: Duration::from_secs(300),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// The shared session registry.
struct Registry {
    next_id: u64,
    sessions: HashMap<u64, Arc<Mutex<Session>>>,
    /// Ids of sessions the idle reaper closed; lets late frames get the
    /// truthful `session_expired` instead of `unknown_session`.
    expired: HashSet<u64>,
    /// Process-wide export byte cache, installed into every session at
    /// open: sessions that ingested identical captures (a fleet of traced
    /// processes profiling one model) share finished export bytes instead
    /// of re-correlating per session.
    export_cache: Arc<ExportCache>,
}

impl Registry {
    fn new() -> Self {
        Self {
            next_id: 1,
            sessions: HashMap::new(),
            expired: HashSet::new(),
            export_cache: Arc::new(ExportCache::with_capacity(EXPORT_CACHE_CAPACITY)),
        }
    }

    fn open(&mut self, quota: usize, on_full: OnFull, sink: Option<ExportSink>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let mut session = Session::new(id, quota, on_full, sink);
        session.share_export_cache(Arc::clone(&self.export_cache));
        self.sessions.insert(id, Arc::new(Mutex::new(session)));
        id
    }

    fn get(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.sessions.get(&id).cloned()
    }

    fn remove(&mut self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.sessions.remove(&id)
    }
}

/// Handle to a running daemon; dropping it shuts the daemon down.
pub struct DaemonHandle {
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    socket_path: PathBuf,
}

impl DaemonHandle {
    /// The socket the daemon listens on.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// Whether a client `Shutdown` frame has requested a shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, join every connection, drain
    /// every surviving session to its sink, remove the socket file.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the socket and spawns the daemon threads.
pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
    // A stale socket file from a crashed predecessor would fail the bind.
    let _ = std::fs::remove_file(&config.socket_path);
    let listener = UnixListener::bind(&config.socket_path)?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let socket_path = config.socket_path.clone();
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("xspd-accept".into())
        .spawn(move || accept_loop(listener, config, accept_shutdown))?;
    Ok(DaemonHandle {
        shutdown,
        accept_thread: Some(accept_thread),
        socket_path,
    })
}

fn accept_loop(listener: UnixListener, config: DaemonConfig, shutdown: Arc<AtomicBool>) {
    let registry = Arc::new(Mutex::new(Registry::new()));
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let _ = stream.set_read_timeout(Some(config.poll_interval));
                let registry = Arc::clone(&registry);
                let shutdown = Arc::clone(&shutdown);
                let config = config.clone();
                let handle = std::thread::Builder::new()
                    .name("xspd-conn".into())
                    .spawn(move || handle_connection(stream, registry, config, shutdown));
                match handle {
                    Ok(h) => connections.push(h),
                    Err(_) => continue,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                reap_idle(&registry, config.idle_timeout);
                connections.retain(|h| !h.is_finished());
                std::thread::sleep(config.poll_interval);
            }
            Err(_) => break,
        }
    }
    for conn in connections {
        let _ = conn.join();
    }
    // Graceful drain: every session still registered — its owner was live
    // when shutdown hit, or its owner thread died without teardown — gets
    // flushed to its sink before the process lets go.
    let sessions: Vec<_> = {
        let mut reg = registry.lock();
        reg.sessions.drain().map(|(_, s)| s).collect()
    };
    for session in sessions {
        session.lock().close();
    }
}

/// Closes and expires sessions idle past `timeout`.
fn reap_idle(registry: &Arc<Mutex<Registry>>, timeout: Duration) {
    let now = Instant::now();
    let stale: Vec<(u64, Arc<Mutex<Session>>)> = {
        let reg = registry.lock();
        reg.sessions
            .iter()
            .filter(|(_, s)| s.lock().idle_for(now) > timeout)
            .map(|(id, s)| (*id, Arc::clone(s)))
            .collect()
    };
    for (id, session) in stale {
        session.lock().close();
        let mut reg = registry.lock();
        reg.remove(id);
        reg.expired.insert(id);
    }
}

/// Per-connection state: the frames this connection opened, for teardown.
struct Connection {
    stream: UnixStream,
    opened: Vec<u64>,
}

impl Connection {
    fn reply(&mut self, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, kind, payload)?;
        self.stream.flush()
    }

    fn reply_err(&mut self, code: &str, message: &str) -> io::Result<()> {
        self.reply(FrameKind::Err, &err_payload(code, message))
    }
}

fn handle_connection(
    stream: UnixStream,
    registry: Arc<Mutex<Registry>>,
    config: DaemonConfig,
    shutdown: Arc<AtomicBool>,
) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut conn = Connection {
        stream: write_half,
        opened: Vec::new(),
    };
    let mut reader = FrameReader::new(stream);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Leave this connection's sessions registered: the accept
            // thread's final drain flushes them (the client may still be
            // mid-capture; its spans must reach the sink).
            return;
        }
        match reader.next_frame() {
            Err(FrameError::TimedOut) => continue,
            Ok(None) => {
                // Clean disconnect without CLOSE: crash-safe teardown.
                teardown(&mut conn, &registry);
                return;
            }
            Ok(Some(frame)) => {
                let outcome = handle_frame(&frame, &mut conn, &registry, &config, &shutdown);
                match outcome {
                    Ok(()) => {}
                    Err(_) => {
                        // The transport is gone; nothing left to answer.
                        teardown(&mut conn, &registry);
                        return;
                    }
                }
            }
            Err(e @ (FrameError::Torn { .. } | FrameError::Io(_))) => {
                // The peer vanished mid-frame; best-effort error (the
                // socket is usually dead already), then teardown.
                let _ = conn.reply_err("bad_frame", &e.to_string());
                teardown(&mut conn, &registry);
                return;
            }
            Err(e @ FrameError::Oversized { .. }) => {
                let _ = conn.reply_err("oversized_frame", &e.to_string());
                teardown(&mut conn, &registry);
                return;
            }
            Err(e @ FrameError::UnknownKind(_)) => {
                let _ = conn.reply_err("bad_frame", &e.to_string());
                teardown(&mut conn, &registry);
                return;
            }
        }
    }
}

/// Closes every session this connection opened and is still registered.
fn teardown(conn: &mut Connection, registry: &Arc<Mutex<Registry>>) {
    for id in conn.opened.drain(..) {
        let session = registry.lock().remove(id);
        if let Some(session) = session {
            session.lock().close();
        }
    }
}

fn stats_payload(stats: SessionStats, extra: &[(&str, serde_json::Value)]) -> Vec<u8> {
    let mut doc = serde_json::Map::new();
    doc.insert(
        "resident".into(),
        serde_json::to_value(&(stats.resident as u64)),
    );
    doc.insert("total".into(), serde_json::to_value(&stats.total));
    doc.insert("spilled".into(), serde_json::to_value(&stats.spilled));
    for (k, v) in extra {
        doc.insert((*k).to_owned(), v.clone());
    }
    serde_json::to_string(&serde_json::Value::Object(doc))
        .expect("stats serialization cannot fail")
        .into_bytes()
}

fn parse_control(payload: &[u8]) -> Result<serde_json::Value, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_owned())?;
    serde_json::from_str(text).map_err(|e| format!("payload is not JSON: {e}"))
}

/// `(error code, message)` pair carried by an ERR frame.
type ErrReply = (String, String);

/// Resolves the `"session"` field of a control payload against the
/// registry, distinguishing expired from never-existing sessions.
fn lookup(
    registry: &Arc<Mutex<Registry>>,
    doc: &serde_json::Value,
) -> Result<(u64, Arc<Mutex<Session>>), ErrReply> {
    let id = doc
        .get("session")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| ("bad_payload".to_owned(), "missing session id".to_owned()))?;
    let reg = registry.lock();
    match reg.get(id) {
        Some(session) => Ok((id, session)),
        None if reg.expired.contains(&id) => Err((
            "session_expired".to_owned(),
            format!("session {id} was reaped after idling past the timeout"),
        )),
        None => Err(("unknown_session".to_owned(), format!("no session {id}"))),
    }
}

/// Dispatches one request frame. `Err` means the reply could not be
/// written (dead transport) — the connection is done.
fn handle_frame(
    frame: &Frame,
    conn: &mut Connection,
    registry: &Arc<Mutex<Registry>>,
    config: &DaemonConfig,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    match frame.kind {
        FrameKind::Open => {
            let doc = match parse_control(&frame.payload) {
                Ok(doc) => doc,
                Err(msg) => return conn.reply_err("bad_payload", &msg),
            };
            let quota = doc
                .get("quota")
                .and_then(|v| v.as_u64())
                .map(|q| q as usize)
                .unwrap_or(config.default_quota);
            if quota == 0 {
                return conn.reply_err("bad_payload", "quota must be positive");
            }
            // Optional model annotation: validated against the zoo with the
            // same forgiving lookup the CLI's --model uses, so a typo is
            // refused at open with the nearest entries instead of tagging
            // the session with a name nothing can resolve later.
            let model = match doc.get("model").and_then(|v| v.as_str()) {
                None => None,
                Some(name) => match xsp_models::zoo::lookup(name) {
                    Ok(entry) => Some(entry.name),
                    Err(e) => return conn.reply_err("unknown_model", &e.to_string()),
                },
            };
            let on_full = match doc.get("on_full").and_then(|v| v.as_str()) {
                None => OnFull::Shed,
                Some(raw) => match OnFull::parse(raw) {
                    Some(p) => p,
                    None => {
                        return conn.reply_err(
                            "bad_payload",
                            &format!("unknown on_full '{raw}'; valid values: shed, block"),
                        );
                    }
                },
            };
            let sink = match doc.get("sink").and_then(|v| v.as_str()) {
                None => None,
                // Session sinks receive raw span streams (spills, flushes),
                // which a folded sink cannot accept — refuse at open with a
                // structured error instead of latching on the first spill.
                Some(path)
                    if Path::new(path)
                        .extension()
                        .and_then(|e| e.to_str())
                        .is_some_and(|e| e.eq_ignore_ascii_case("folded")) =>
                {
                    return conn.reply_err(
                        "bad_payload",
                        &format!(
                            "folded sinks finalize per correlated run and cannot take a \
                             session's raw span stream; use a .jsonl, .xspb, or .json sink \
                             and fold offline ({path})"
                        ),
                    );
                }
                Some(path) => match ExportSink::create(Path::new(path)) {
                    Ok(sink) => Some(sink),
                    Err(e) => {
                        return conn.reply_err("sink_error", &format!("cannot create {path}: {e}"));
                    }
                },
            };
            if on_full == OnFull::Block && sink.is_none() {
                return conn.reply_err(
                    "bad_payload",
                    "on_full=block evicts to the session sink; open with a sink path",
                );
            }
            let id = registry.lock().open(quota, on_full, sink);
            conn.opened.push(id);
            let mut doc = serde_json::Map::new();
            doc.insert("session".into(), serde_json::to_value(&id));
            if let Some(model) = model {
                // Echo the *resolved* zoo name so a prefix open
                // ("bert-base") learns what it actually got.
                doc.insert("model".into(), serde_json::Value::String(model.to_owned()));
            }
            let payload = serde_json::to_string(&serde_json::Value::Object(doc))
                .expect("open ack serialization cannot fail")
                .into_bytes();
            conn.reply(FrameKind::Ok, &payload)
        }
        FrameKind::Append => {
            if frame.payload.len() < 8 {
                return conn.reply_err("bad_payload", "append payload shorter than a session id");
            }
            let id = u64::from_be_bytes(frame.payload[..8].try_into().expect("8 bytes"));
            let session = {
                let reg = registry.lock();
                match reg.get(id) {
                    Some(s) => s,
                    None if reg.expired.contains(&id) => {
                        drop(reg);
                        return conn.reply_err(
                            "session_expired",
                            &format!("session {id} was reaped after idling past the timeout"),
                        );
                    }
                    None => {
                        drop(reg);
                        return conn.reply_err("unknown_session", &format!("no session {id}"));
                    }
                }
            };
            // Batch encoding is sniffed per append: `.xspb` span binary
            // (magic-prefixed) or span-JSON-lines, so one session can mix
            // producers. The body is parsed straight into the session's
            // store.
            let appended = session.lock().append_bytes(&frame.payload[8..]);
            match appended {
                Ok(stats) => conn.reply(FrameKind::Ok, &stats_payload(stats, &[])),
                Err(e @ SessionError::BadPayload(_)) => {
                    conn.reply_err("bad_payload", &e.to_string())
                }
                Err(
                    e @ (SessionError::QuotaExceeded { .. } | SessionError::BatchOverQuota { .. }),
                ) => conn.reply_err("quota_exceeded", &e.to_string()),
                Err(e @ SessionError::SinkError(_)) => conn.reply_err("sink_error", &e.to_string()),
            }
        }
        FrameKind::Flush => {
            let doc = match parse_control(&frame.payload) {
                Ok(doc) => doc,
                Err(msg) => return conn.reply_err("bad_payload", &msg),
            };
            let (_, session) = match lookup(registry, &doc) {
                Ok(found) => found,
                Err((code, msg)) => return conn.reply_err(&code, &msg),
            };
            let (stats, sink_error) = session.lock().flush();
            let extra = sink_error_value(sink_error);
            conn.reply(FrameKind::Ok, &stats_payload(stats, &extra))
        }
        FrameKind::Export => {
            let doc = match parse_control(&frame.payload) {
                Ok(doc) => doc,
                Err(msg) => return conn.reply_err("bad_payload", &msg),
            };
            let format = match doc.get("format").and_then(|v| v.as_str()) {
                None => ExportFormat::Spans,
                Some(raw) => match ExportFormat::parse(raw) {
                    Ok(f) => f,
                    Err(e) => return conn.reply_err("unknown_format", &e.to_string()),
                },
            };
            let (_, session) = match lookup(registry, &doc) {
                Ok(found) => found,
                Err((code, msg)) => return conn.reply_err(&code, &msg),
            };
            let (bytes, passes) = {
                let mut session = session.lock();
                let bytes = session.export_bytes(format);
                (bytes, session.correlation_passes() as u64)
            };
            for chunk in bytes.chunks(DATA_CHUNK.min(MAX_PAYLOAD)) {
                conn.reply(FrameKind::Data, chunk)?;
            }
            let mut doc = serde_json::Map::new();
            doc.insert("bytes".into(), serde_json::to_value(&(bytes.len() as u64)));
            // Lifetime correlation passes: the client-visible observable
            // for exports served from the daemon-wide export cache (a
            // shared-cache hit adds zero passes).
            doc.insert("correlation_passes".into(), serde_json::to_value(&passes));
            let payload = serde_json::to_string(&serde_json::Value::Object(doc))
                .expect("end serialization cannot fail")
                .into_bytes();
            conn.reply(FrameKind::End, &payload)
        }
        FrameKind::Close => {
            let doc = match parse_control(&frame.payload) {
                Ok(doc) => doc,
                Err(msg) => return conn.reply_err("bad_payload", &msg),
            };
            let (id, session) = match lookup(registry, &doc) {
                Ok(found) => found,
                Err((code, msg)) => return conn.reply_err(&code, &msg),
            };
            let (stats, sink_error) = session.lock().close();
            registry.lock().remove(id);
            conn.opened.retain(|o| *o != id);
            let extra = sink_error_value(sink_error);
            conn.reply(FrameKind::Ok, &stats_payload(stats, &extra))
        }
        FrameKind::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            conn.reply(FrameKind::Ok, b"{}")
        }
        FrameKind::Ok | FrameKind::Err | FrameKind::Data | FrameKind::End => {
            conn.reply_err("bad_frame", "response frames are not valid requests")
        }
    }
}

/// Renders the optional sink error as the `sink_error` ack field (JSON
/// `null` when the sink is healthy or absent).
fn sink_error_value(sink_error: Option<String>) -> Vec<(&'static str, serde_json::Value)> {
    let value = match sink_error {
        Some(msg) => serde_json::to_value(&msg),
        None => serde_json::Value::Null,
    };
    vec![("sink_error", value)]
}
