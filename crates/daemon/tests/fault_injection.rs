//! Fault injection against a live in-process `xspd`: torn frames,
//! oversized headers, garbage kind bytes, disconnects mid-stream, quota
//! backpressure in both policies, idle reaping, racing flush vs export,
//! poisoned sinks, and graceful shutdown — every robustness claim in
//! ARCHITECTURE.md's daemon section has a dedicated test here.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xsp_core::export::ExportFormat;
use xsp_daemon::client::torn_frame;
use xsp_daemon::protocol::{FrameKind, MAX_PAYLOAD};
use xsp_daemon::{spawn, DaemonClient, DaemonConfig, DaemonHandle, OpenOptions};
use xsp_trace::{Span, SpanBuilder, StackLevel, TraceId};

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique, short socket path (sun_path caps at ~100 bytes).
fn socket_path() -> PathBuf {
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("xspd-{}-{seq}.sock", std::process::id()))
}

fn temp_file(tag: &str) -> PathBuf {
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("xspd-{}-{seq}-{tag}", std::process::id()))
}

fn daemon(configure: impl FnOnce(&mut DaemonConfig)) -> DaemonHandle {
    let mut config = DaemonConfig::new(socket_path());
    config.poll_interval = Duration::from_millis(10);
    configure(&mut config);
    spawn(config).expect("daemon binds its socket")
}

fn client(handle: &DaemonHandle) -> DaemonClient {
    DaemonClient::connect(handle.socket_path()).expect("daemon accepts connections")
}

fn mk_spans(n: usize, offset: u64) -> Vec<Span> {
    (0..n as u64)
        .map(|i| {
            SpanBuilder::new(format!("span{}", offset + i), StackLevel::Model, TraceId(1))
                .start(offset + i)
                .finish(offset + i + 1)
        })
        .collect()
}

/// A `Model` span from 500 to 100 and a parentless `Kernel` span from 200
/// to 300; the bad span is the first.
fn inverted_two_span_capture() -> (&'static str, Vec<Span>, usize) {
    let mut model = SpanBuilder::new("model_prediction", StackLevel::Model, TraceId(1))
        .start(100)
        .finish(500);
    (model.start_ns, model.end_ns) = (500, 100);
    let kernel = SpanBuilder::new("volta_sgemm", StackLevel::Kernel, TraceId(1))
        .start(200)
        .finish(300);
    ("two-span", vec![model, kernel], 0)
}

/// A bert-base M/L/G capture with its `model_prediction` span inverted,
/// and that span's index.
fn inverted_bert_capture() -> (&'static str, Vec<Span>, usize) {
    use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
    let profile = Xsp::new(
        XspConfig::new(
            xsp_gpu::systems::tesla_v100(),
            xsp_framework::FrameworkKind::TensorFlow,
        )
        .runs(1),
    )
    .run(
        ProfileRequest::new(&xsp_models::zoo::lookup("bert-base").unwrap().graph(1))
            .level(ProfilingLevel::ModelLayerGpu),
    );
    let mut spans: Vec<Span> = profile.iter_spans().cloned().collect();
    let bad = spans
        .iter()
        .position(|s| s.name == "model_prediction")
        .unwrap();
    let span = &mut spans[bad];
    std::mem::swap(&mut span.start_ns, &mut span.end_ns);
    ("bert-base", spans, bad)
}

fn jsonl_lines(path: &PathBuf) -> usize {
    match std::fs::File::open(path) {
        Ok(f) => std::io::BufReader::new(f).lines().count(),
        Err(_) => 0,
    }
}

/// Polls until `cond` holds or five seconds pass.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn torn_frame_poisons_only_its_connection() {
    let handle = daemon(|_| {});
    let mut bad = client(&handle);
    // Header promises 1 KiB, the stream dies after 10 payload bytes.
    bad.send_raw(&torn_frame(FrameKind::Append, 1024, 10))
        .unwrap();
    bad.shutdown_write().unwrap();
    let frame = bad.next_response().expect("server answers before closing");
    assert_eq!(frame.kind, FrameKind::Err);
    let (code, message) = xsp_daemon::protocol::parse_err_payload(&frame.payload);
    assert_eq!(code, "bad_frame");
    assert!(message.contains("torn"), "names the fault: {message}");

    // The daemon keeps serving new connections.
    let mut good = client(&handle);
    let session = good.open(&OpenOptions::default()).unwrap();
    assert_eq!(
        good.append_spans(session, &mk_spans(3, 0))
            .unwrap()
            .stats
            .resident,
        3
    );
    handle.shutdown();
}

#[test]
fn oversized_header_rejected_before_any_payload() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let mut header = vec![FrameKind::Append as u8];
    header.extend(((MAX_PAYLOAD as u32) + 1).to_be_bytes());
    c.send_raw(&header).unwrap();
    let frame = c.next_response().unwrap();
    assert_eq!(frame.kind, FrameKind::Err);
    let (code, _) = xsp_daemon::protocol::parse_err_payload(&frame.payload);
    assert_eq!(code, "oversized_frame");
    handle.shutdown();
}

#[test]
fn unknown_kind_byte_is_a_bad_frame() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let mut bytes = vec![0x5a];
    bytes.extend(0u32.to_be_bytes());
    c.send_raw(&bytes).unwrap();
    let frame = c.next_response().unwrap();
    assert_eq!(frame.kind, FrameKind::Err);
    let (code, _) = xsp_daemon::protocol::parse_err_payload(&frame.payload);
    assert_eq!(code, "bad_frame");
    handle.shutdown();
}

#[test]
fn disconnect_mid_stream_flushes_session_to_sink() {
    let handle = daemon(|_| {});
    let sink = temp_file("disconnect.jsonl");
    {
        let mut c = client(&handle);
        let session = c
            .open(&OpenOptions {
                sink: Some(sink.to_str().unwrap().to_owned()),
                ..OpenOptions::default()
            })
            .unwrap();
        c.append_spans(session, &mk_spans(7, 0)).unwrap();
        // No CLOSE: the client just vanishes.
    }
    wait_for("crash-safe teardown to persist spans", || {
        jsonl_lines(&sink) == 7
    });
    handle.shutdown();
    std::fs::remove_file(&sink).ok();
}

#[test]
fn quota_shed_rejects_with_explicit_error_and_sheds_nothing_accepted() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let session = c
        .open(&OpenOptions {
            quota: Some(5),
            on_full: Some("shed"),
            ..OpenOptions::default()
        })
        .unwrap();
    c.append_spans(session, &mk_spans(4, 0)).unwrap();
    let err = c.append_spans(session, &mk_spans(3, 100)).unwrap_err();
    assert_eq!(
        err.code(),
        Some("quota_exceeded"),
        "explicit error frame: {err}"
    );
    // The refused batch is atomic: nothing of it landed, the session lives.
    let ack = c.append_spans(session, &mk_spans(1, 200)).unwrap();
    assert_eq!(ack.stats.resident, 5);
    assert_eq!(ack.stats.total, 5);
    // A batch alone larger than the quota can never be accepted.
    let err = c.append_spans(session, &mk_spans(6, 300)).unwrap_err();
    assert_eq!(err.code(), Some("quota_exceeded"));
    handle.shutdown();
}

#[test]
fn quota_block_evicts_to_sink_and_accepts() {
    let handle = daemon(|_| {});
    let sink = temp_file("block.jsonl");
    let mut c = client(&handle);
    let session = c
        .open(&OpenOptions {
            sink: Some(sink.to_str().unwrap().to_owned()),
            quota: Some(5),
            on_full: Some("block"),
            ..OpenOptions::default()
        })
        .unwrap();
    c.append_spans(session, &mk_spans(4, 0)).unwrap();
    let ack = c.append_spans(session, &mk_spans(3, 100)).unwrap();
    assert_eq!(ack.stats.spilled, 4, "resident store evicted to the sink");
    assert_eq!(ack.stats.resident, 3);
    assert_eq!(ack.stats.total, 7);
    let ack = c.close(session).unwrap();
    assert_eq!(ack.sink_error, None);
    assert_eq!(jsonl_lines(&sink), 7, "spilled + closed spans all durable");
    handle.shutdown();
    std::fs::remove_file(&sink).ok();
}

#[test]
fn block_policy_without_sink_is_refused_at_open() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let err = c
        .open(&OpenOptions {
            on_full: Some("block"),
            ..OpenOptions::default()
        })
        .unwrap_err();
    assert_eq!(err.code(), Some("bad_payload"));
    handle.shutdown();
}

#[test]
fn folded_session_sink_is_refused_at_open() {
    // Session sinks take raw span streams (spills, flushes), which folded
    // output cannot represent — the daemon refuses at open with a
    // structured error instead of latching on the first spill.
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let sink = temp_file("refused.folded");
    let err = c
        .open(&OpenOptions {
            sink: Some(sink.to_str().unwrap().to_owned()),
            ..OpenOptions::default()
        })
        .unwrap_err();
    assert_eq!(err.code(), Some("bad_payload"));
    assert!(
        err.to_string().contains("folded"),
        "refusal names the format: {err}"
    );
    assert!(!sink.exists(), "no file is created for a refused sink");
    handle.shutdown();
}

#[test]
fn concurrent_flush_and_export_race_cleanly() {
    let handle = daemon(|_| {});
    let mut writer = client(&handle);
    let session = writer.open(&OpenOptions::default()).unwrap();

    // A second connection hammers export on the same session while the
    // first appends and flushes: every response must stay well-formed and
    // every export a valid JSONL prefix of the ingested stream.
    let socket = handle.socket_path().to_owned();
    let exporter = std::thread::spawn(move || {
        let mut c = DaemonClient::connect(&socket).unwrap();
        let mut last = 0usize;
        for _ in 0..50 {
            let bytes = c.export(session, ExportFormat::Spans).unwrap();
            let lines = bytes
                .split(|b| *b == b'\n')
                .filter(|l| !l.is_empty())
                .count();
            assert!(lines >= last, "export shrank from {last} to {lines} spans");
            last = lines;
        }
        last
    });
    let mut appended = 0u64;
    for batch in 0..50 {
        writer
            .append_spans(session, &mk_spans(10, batch * 10))
            .unwrap();
        appended += 10;
        if batch % 5 == 0 {
            writer.flush(session).unwrap();
        }
    }
    exporter.join().expect("exporter thread panicked");
    let bytes = writer.export(session, ExportFormat::Spans).unwrap();
    let lines = bytes
        .split(|b| *b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    assert_eq!(lines as u64, appended, "final export sees every span");
    handle.shutdown();
}

#[test]
fn idle_sessions_are_reaped_flushed_and_reported_expired() {
    let handle = daemon(|config| {
        config.idle_timeout = Duration::from_millis(100);
    });
    let sink = temp_file("idle.jsonl");
    let mut c = client(&handle);
    let session = c
        .open(&OpenOptions {
            sink: Some(sink.to_str().unwrap().to_owned()),
            ..OpenOptions::default()
        })
        .unwrap();
    c.append_spans(session, &mk_spans(4, 0)).unwrap();
    wait_for("idle reaper to flush the session", || {
        jsonl_lines(&sink) == 4
    });
    let err = c.flush(session).unwrap_err();
    assert_eq!(
        err.code(),
        Some("session_expired"),
        "expired beats unknown_session: {err}"
    );
    handle.shutdown();
    std::fs::remove_file(&sink).ok();
}

#[test]
fn unknown_session_and_bad_payloads_get_structured_errors() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    assert_eq!(c.flush(999).unwrap_err().code(), Some("unknown_session"));
    let session = c.open(&OpenOptions::default()).unwrap();
    let err = c
        .append_raw(session, b"this is not span json\n")
        .unwrap_err();
    assert_eq!(err.code(), Some("bad_payload"));
    // The export format parser's structured rejection rides through.
    c.send_frame(
        FrameKind::Export,
        format!("{{\"session\":{session},\"format\":\"perfetto\"}}").as_bytes(),
    )
    .unwrap();
    let frame = c.next_response().unwrap();
    assert_eq!(frame.kind, FrameKind::Err);
    let (code, message) = xsp_daemon::protocol::parse_err_payload(&frame.payload);
    assert_eq!(code, "unknown_format");
    assert!(
        message.contains("spans|jsonl|span-json-lines"),
        "rejection lists valid spellings: {message}"
    );
    handle.shutdown();
}

#[test]
fn corrupt_binary_appends_are_rejected_atomically() {
    use xsp_daemon::client::spans_to_binary;
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let session = c.open(&OpenOptions::default()).unwrap();

    // A healthy binary append lands, interleaved with JSONL on the same
    // session — the daemon sniffs each batch's encoding independently.
    let ack = c.append_spans_binary(session, &mk_spans(3, 0)).unwrap();
    assert_eq!(ack.stats.resident, 3);
    let ack = c.append_spans(session, &mk_spans(2, 100)).unwrap();
    assert_eq!(ack.stats.resident, 5);

    // Truncated binary: magic sniffs as .xspb, the record tears mid-way.
    let mut torn = spans_to_binary(&mk_spans(2, 200));
    torn.truncate(torn.len() - 3);
    let err = c.append_raw(session, &torn).unwrap_err();
    assert_eq!(err.code(), Some("bad_payload"));
    assert!(
        err.to_string().contains("span binary"),
        "names the encoding: {err}"
    );

    // A record announcing a payload beyond the cap dies without OOM.
    let mut oversized = spans_to_binary(&[]);
    oversized.push(0x02);
    oversized.extend(u32::MAX.to_be_bytes());
    let err = c.append_raw(session, &oversized).unwrap_err();
    assert_eq!(err.code(), Some("bad_payload"));

    // Torn JSONL: two good lines, then a line cut off mid-object.
    let mut torn = xsp_daemon::client::spans_to_jsonl(&mk_spans(3, 400));
    torn.truncate(torn.len() - 10);
    let err = c.append_raw(session, &torn).unwrap_err();
    assert_eq!(err.code(), Some("bad_payload"));
    assert!(
        err.to_string().contains("span JSONL") && err.to_string().contains("line 3"),
        "names the encoding and the line: {err}"
    );

    // A span that ends before it starts, in either encoding: the two-span
    // capture (an inverted model span, then a parentless kernel) and a
    // bert-base capture with its model_prediction span inverted.
    for (label, spans, bad) in [inverted_two_span_capture(), inverted_bert_capture()] {
        let jsonl = xsp_daemon::client::spans_to_jsonl(&spans);
        for bytes in [jsonl, spans_to_binary(&spans)] {
            let err = c.append_raw(session, &bytes).unwrap_err();
            assert_eq!(err.code(), Some("bad_payload"), "{label}: {err}");
            assert!(
                err.to_string().contains("before"),
                "{label}: says why: {err}"
            );
        }
        let err = c
            .append_raw(session, &xsp_daemon::client::spans_to_jsonl(&spans))
            .unwrap_err();
        assert!(
            err.to_string().contains(&format!("line {}", bad + 1)),
            "{label}: names the line: {err}"
        );
    }

    // Nothing of any refused batch landed; the session still serves.
    let ack = c.append_spans_binary(session, &mk_spans(1, 300)).unwrap();
    assert_eq!(ack.stats.resident, 6);
    assert_eq!(ack.stats.total, 6);
    handle.shutdown();
}

#[test]
fn binary_and_jsonl_appends_export_identically() {
    use xsp_daemon::client::spans_to_binary;
    let handle = daemon(|_| {});
    let spans = mk_spans(10, 0);

    let mut via_jsonl = client(&handle);
    let s1 = via_jsonl.open(&OpenOptions::default()).unwrap();
    via_jsonl.append_spans(s1, &spans).unwrap();

    let mut via_binary = client(&handle);
    let s2 = via_binary.open(&OpenOptions::default()).unwrap();
    via_binary.append_spans_binary(s2, &spans).unwrap();

    for format in ExportFormat::ALL {
        let a = via_jsonl.export(s1, format).unwrap();
        let b = via_binary.export(s2, format).unwrap();
        assert_eq!(a, b, "{format:?} export depends on the append encoding");
    }
    // And the binary export round-trips to the spans that went in.
    let bytes = via_binary.export(s2, ExportFormat::Binary).unwrap();
    assert_eq!(bytes, spans_to_binary(&spans));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_open_session() {
    let handle = daemon(|_| {});
    let sinks: Vec<PathBuf> = (0..3)
        .map(|i| temp_file(&format!("drain{i}.jsonl")))
        .collect();
    let mut clients: Vec<DaemonClient> = Vec::new();
    for (i, sink) in sinks.iter().enumerate() {
        let mut c = client(&handle);
        let session = c
            .open(&OpenOptions {
                sink: Some(sink.to_str().unwrap().to_owned()),
                ..OpenOptions::default()
            })
            .unwrap();
        c.append_spans(session, &mk_spans(5 + i, 0)).unwrap();
        clients.push(c); // keep connections (and sessions) alive
    }
    // The API-level equivalent of SIGTERM: stop accepting, join
    // connections, drain all sessions to their sinks.
    handle.shutdown();
    for (i, sink) in sinks.iter().enumerate() {
        assert_eq!(jsonl_lines(sink), 5 + i, "session {i} drained on shutdown");
        std::fs::remove_file(sink).ok();
    }
    drop(clients);
}

#[test]
fn shutdown_frame_stops_the_daemon() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    c.shutdown_daemon().unwrap();
    wait_for("shutdown flag to propagate", || handle.shutdown_requested());
    handle.shutdown();
}

#[test]
fn sink_write_error_is_latched_and_surfaced_in_close_frame() {
    // /dev/full accepts opens and fails writes with ENOSPC — the canonical
    // poisoned sink. Skip quietly where the device is missing.
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available");
        return;
    }
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let session = c
        .open(&OpenOptions {
            sink: Some("/dev/full".to_owned()),
            ..OpenOptions::default()
        })
        .unwrap();
    c.append_spans(session, &mk_spans(10, 0)).unwrap();
    // First flush forces the buffered writer onto the device: the write
    // fails and the sink latches.
    let first = c.flush(session).unwrap();
    assert!(
        first.sink_error.is_some(),
        "flush surfaces the sink write failure"
    );
    // The latch persists: a later close still reports the poisoned sink in
    // its ack frame, even though no new bytes were written.
    let ack = c.close(session).unwrap();
    let msg = ack
        .sink_error
        .expect("close frame carries the latched sink error");
    assert_eq!(
        first.sink_error.unwrap(),
        msg,
        "same latched error, not a new one"
    );
    handle.shutdown();
}

#[test]
fn sigterm_drains_the_real_xspd_binary() {
    let socket = socket_path();
    let sink = temp_file("sigterm.jsonl");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_xspd"))
        .args(["--socket", socket.to_str().unwrap()])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("xspd binary spawns");
    wait_for("xspd to bind its socket", || socket.exists());
    let mut c = DaemonClient::connect(&socket).expect("xspd accepts connections");
    let session = c
        .open(&OpenOptions {
            sink: Some(sink.to_str().unwrap().to_owned()),
            ..OpenOptions::default()
        })
        .unwrap();
    c.append_spans(session, &mk_spans(9, 0)).unwrap();

    let kill = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    wait_for("xspd to exit after SIGTERM", || {
        matches!(child.try_wait(), Ok(Some(_)))
    });
    let status = child.wait().unwrap();
    assert!(status.success(), "graceful exit, not a crash: {status}");
    assert_eq!(
        jsonl_lines(&sink),
        9,
        "SIGTERM drained the session to its sink"
    );
    assert!(!socket.exists(), "socket file removed on the way out");
    std::fs::remove_file(&sink).ok();
}

/// The real `xspd` binary listening on its socket; killed and its socket
/// removed on drop, so a failing assertion leaves no daemon behind.
struct RealXspd {
    child: std::process::Child,
    socket: PathBuf,
}

impl Drop for RealXspd {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        std::fs::remove_file(&self.socket).ok();
    }
}

#[test]
fn deeply_nested_control_frames_are_refused_by_the_real_xspd_binary() {
    let socket = socket_path();
    let xspd = RealXspd {
        child: std::process::Command::new(env!("CARGO_BIN_EXE_xspd"))
            .args(["--socket", socket.to_str().unwrap()])
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("xspd binary spawns"),
        socket,
    };
    wait_for("xspd to bind its socket", || xspd.socket.exists());
    // 20 KB of nesting: a reader that recursed per level would overflow
    // the connection thread's stack and abort the whole daemon.
    let depth = 10_000;
    let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let mut c = DaemonClient::connect(&xspd.socket).expect("xspd accepts connections");
    for kind in [FrameKind::Open, FrameKind::Flush] {
        c.send_frame(kind, deep.as_bytes()).unwrap();
        let frame = c.next_response().expect("xspd answers the frame");
        assert_eq!(frame.kind, FrameKind::Err, "{kind:?}");
        let (code, message) = xsp_daemon::protocol::parse_err_payload(&frame.payload);
        assert_eq!(code, "bad_payload", "{kind:?}: {message}");
        assert!(
            message.contains("recursion limit exceeded"),
            "{kind:?}: {message}"
        );
    }
    let mut second = DaemonClient::connect(&xspd.socket).expect("xspd still accepts");
    let session = second
        .open(&OpenOptions::default())
        .expect("xspd still opens sessions");
    second.append_spans(session, &mk_spans(3, 0)).unwrap();
}

#[test]
fn open_resolves_model_with_the_cli_lookup() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    // A forgiving prefix open learns the resolved zoo name from the ack.
    let (session, model) = c
        .open_resolved(&OpenOptions {
            model: Some("bert-base".to_owned()),
            ..OpenOptions::default()
        })
        .unwrap();
    assert_eq!(model.as_deref(), Some("BERT-Base_SQuAD_384"));
    assert_eq!(
        c.append_spans(session, &mk_spans(2, 0))
            .unwrap()
            .stats
            .resident,
        2
    );
    // A model-less open keeps working and echoes nothing.
    let (_, none) = c.open_resolved(&OpenOptions::default()).unwrap();
    assert_eq!(none, None);
    handle.shutdown();
}

#[test]
fn open_refuses_unknown_model_with_nearest_entries() {
    let handle = daemon(|_| {});
    let mut c = client(&handle);
    let err = c
        .open(&OpenOptions {
            model: Some("resnet15".to_owned()),
            ..OpenOptions::default()
        })
        .unwrap_err();
    assert_eq!(err.code(), Some("unknown_model"));
    let msg = err.to_string();
    assert!(msg.contains("nearest"), "lists nearest entries: {msg}");
    assert!(msg.contains("ResNet_v1_50"), "names the likely fix: {msg}");
    handle.shutdown();
}
