//! The daemon's determinism contract, pinned end to end: a capture
//! streamed through `xspd` in batches and exported live from the in-flight
//! session must be byte-identical to the same workload exported by the
//! one-shot `xsp export` path — for every format, whether the profile was
//! produced serially or by the 4-worker evaluation engine, and with four
//! sessions streaming concurrently.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xsp_core::export::{export_correlated, export_profile, ExportFormat};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_cupti::Cupti;
use xsp_daemon::{
    spawn, DaemonClient, DaemonConfig, DaemonHandle, OnFull, OpenOptions, Session, DEFAULT_QUOTA,
};
use xsp_framework::{FrameworkKind, RunOptions};
use xsp_gpu::{systems, CudaContext, CudaContextConfig};
use xsp_models::zoo;
use xsp_trace::export::read_span_json_lines;
use xsp_trace::{
    CorrelationEngine, Span, SpanBuilder, SpanId, StackLevel, Trace, TraceId, Tracer, TracingServer,
};

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

fn start_daemon() -> DaemonHandle {
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::SeqCst);
    let mut config = DaemonConfig::new(
        std::env::temp_dir().join(format!("xspd-exp-{}-{seq}.sock", std::process::id())),
    );
    config.poll_interval = Duration::from_millis(10);
    spawn(config).expect("daemon binds its socket")
}

/// One-shot profile of `model` exactly as `xsp export` produces it.
fn one_shot(model: &str, parallelism: Parallelism) -> xsp_core::LeveledProfile {
    Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .parallelism(parallelism),
    )
    .run(
        ProfileRequest::new(&zoo::by_name(model).unwrap().graph(1))
            .level(ProfilingLevel::ModelLayerGpu),
    )
}

fn one_shot_bytes(profile: &xsp_core::LeveledProfile, format: ExportFormat) -> Vec<u8> {
    let mut out = Vec::new();
    export_profile(profile, format, &mut out).expect("Vec export cannot fail");
    out
}

/// The capture as span batches, exactly what a traced process would stream
/// to the daemon (split into batches to exercise multi-append reassembly).
fn capture_batches(profile: &xsp_core::LeveledProfile, batch: usize) -> Vec<Vec<Span>> {
    let jsonl = one_shot_bytes(profile, ExportFormat::Spans);
    let spans = read_span_json_lines(&jsonl[..])
        .expect("capture parses")
        .into_spans();
    spans.chunks(batch).map(<[Span]>::to_vec).collect()
}

/// Streams a capture through a daemon session and exports it live in every
/// format, asserting byte-identity with the one-shot export.
fn assert_daemon_matches_one_shot(
    handle: &DaemonHandle,
    profile: &xsp_core::LeveledProfile,
    label: &str,
) {
    let mut c = DaemonClient::connect(handle.socket_path()).expect("connect");
    let session = c.open(&OpenOptions::default()).expect("open");
    for batch in capture_batches(profile, 64) {
        c.append_spans(session, &batch).expect("append");
    }
    for format in ExportFormat::ALL {
        let live = c.export(session, format).expect("export");
        let expected = one_shot_bytes(profile, format);
        assert!(
            live == expected,
            "{label}/{format}: daemon live export diverged from one-shot \
             ({} vs {} bytes)",
            live.len(),
            expected.len()
        );
    }
    c.close(session).expect("close");
}

#[test]
fn daemon_export_matches_one_shot_serial_and_parallel() {
    let handle = start_daemon();
    // The engine's worker count must not leak into the daemon's bytes —
    // the same contract CI enforces on the CLI at XSP_THREADS=1 and 4.
    let serial = one_shot("MobileNet_v1_0.25_128", Parallelism::Serial);
    let parallel = one_shot("MobileNet_v1_0.25_128", Parallelism::Fixed(4));
    assert_daemon_matches_one_shot(&handle, &serial, "serial");
    assert_daemon_matches_one_shot(&handle, &parallel, "fixed4");
    for format in ExportFormat::ALL {
        assert!(
            one_shot_bytes(&serial, format) == one_shot_bytes(&parallel, format),
            "{format}: one-shot bytes differ between Serial and Fixed(4)"
        );
    }
    handle.shutdown();
}

#[test]
fn four_concurrent_sessions_export_independently_and_identically() {
    let handle = start_daemon();
    let models = [
        "MobileNet_v1_0.25_128",
        "MobileNet_v1_0.5_160",
        "MobileNet_v1_0.75_192",
        "MobileNet_v1_1.0_224",
    ];
    let workers: Vec<_> = models
        .map(|model| {
            let socket = handle.socket_path().to_owned();
            std::thread::spawn(move || {
                let profile = one_shot(model, Parallelism::Fixed(2));
                let mut c = DaemonClient::connect(&socket).expect("connect");
                let session = c.open(&OpenOptions::default()).expect("open");
                for batch in capture_batches(&profile, 32) {
                    c.append_spans(session, &batch).expect("append");
                }
                let live = c.export(session, ExportFormat::Spans).expect("export");
                let expected = one_shot_bytes(&profile, ExportFormat::Spans);
                assert!(
                    live == expected,
                    "{model}: concurrent session export diverged \
                     ({} vs {} bytes)",
                    live.len(),
                    expected.len()
                );
                c.close(session).expect("close");
            })
        })
        .into_iter()
        .collect();
    for worker in workers {
        worker.join().expect("session worker panicked");
    }
    handle.shutdown();
}

/// Two sessions streaming the same capture share the daemon's
/// process-wide export cache: the second session's export is byte-for-byte
/// the first one's, served with zero correlation passes of its own.
#[test]
fn two_sessions_share_the_process_wide_export_cache() {
    let handle = start_daemon();
    let profile = one_shot("MobileNet_v1_0.25_128", Parallelism::Fixed(4));
    let batches = capture_batches(&profile, 64);

    let mut c = DaemonClient::connect(handle.socket_path()).expect("connect");
    let first = c.open(&OpenOptions::default()).expect("open first");
    let second = c.open(&OpenOptions::default()).expect("open second");
    for batch in &batches {
        c.append_spans(first, batch).expect("append first");
        c.append_spans(second, batch).expect("append second");
    }

    for format in ExportFormat::ALL {
        let (cold, cold_passes) = c
            .export_counting_passes(first, format)
            .expect("cold export");
        let (warm, warm_passes) = c
            .export_counting_passes(second, format)
            .expect("warm export");
        assert!(
            warm == cold,
            "{format}: shared-cache export diverged ({} vs {} bytes)",
            warm.len(),
            cold.len()
        );
        assert!(
            cold_passes > 0,
            "{format}: the first session correlates for itself"
        );
        assert_eq!(
            warm_passes, 0,
            "{format}: the second session must serve from the shared cache"
        );
        // One-shot equivalence still holds for cache-served bytes.
        assert!(warm == one_shot_bytes(&profile, format));
    }
    c.close(first).expect("close first");
    c.close(second).expect("close second");
    handle.shutdown();
}

/// `xsp export --from` of a capture holding `spans`, in `format`.
fn from_bytes(spans: &[Span], format: ExportFormat) -> Vec<u8> {
    let correlated = CorrelationEngine::new().correlate(Trace::from_spans(spans.to_vec()));
    let mut out = Vec::new();
    export_correlated(&correlated, format, &mut out).expect("Vec export cannot fail");
    out
}

/// Streams `capture` into a standalone session as one batch and checks
/// that every format exports the `--from` bytes of the same capture.
fn assert_session_exports_from_bytes(capture: Vec<Span>) {
    let mut session = Session::new(1, DEFAULT_QUOTA, OnFull::Shed, None);
    session
        .append(capture.clone())
        .expect("the batch fits the quota");
    for format in ExportFormat::ALL {
        assert!(
            *session.export_bytes(format) == from_bytes(&capture, format),
            "{format}: the session's export differs from the --from conversion"
        );
    }
}

/// A session keeps the order a batch arrived in: a batch whose runs come
/// as trace ids 2 then 1 exports what `xsp export --from` writes.
#[test]
fn a_batch_with_runs_out_of_id_order_exports_the_from_bytes() {
    let profile = one_shot("MobileNet_v1_0.25_128", Parallelism::Serial);
    let runs = [(&profile.m_runs[0], 2), (&profile.mlg_runs[0], 1)];
    let batch = runs.into_iter().flat_map(|(run, trace_id)| {
        run.trace.iter_spans().map(move |s| Span {
            trace_id: TraceId(trace_id),
            ..s.clone()
        })
    });
    assert_session_exports_from_bytes(batch.collect());
}

/// A capture may repeat a span id. Two spans sharing id 1, the second
/// naming 1 as its parent, export as one root with one child, offline and
/// in a session, instead of a walk that never ends.
#[test]
fn a_repeated_span_id_exports_once_per_span() {
    let span = |name: &str, start_ns, end_ns, parent| Span {
        id: SpanId(1),
        parent,
        start_ns,
        end_ns,
        ..SpanBuilder::new(name, StackLevel::Model, TraceId(1)).finish(0)
    };
    let capture = vec![
        span("outer", 0, 100_000, None),
        span("inner", 10_000, 30_000, Some(SpanId(1))),
    ];
    let folded = from_bytes(&capture, ExportFormat::Folded);
    assert_eq!(folded, b"outer 80\nouter;inner 20\n");
    assert_session_exports_from_bytes(capture);
}

/// A raw capture as the profilers publish it, before any correlation: a
/// model span, the framework's layer spans, and CUPTI's kernel spans as
/// separate launch and execution halves that name no parent.
fn raw_capture() -> Vec<Span> {
    let system = systems::tesla_v100();
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1);
    let ctx = Arc::new(CudaContext::new(CudaContextConfig::new(system.clone())));
    let cupti = Arc::new(Cupti::new(Vec::new(), system.gpu.clone()));
    ctx.register_hook(cupti.clone());
    let server = TracingServer::new();
    let trace_id = server.fresh_trace_id();
    let layers = server.tracer("framework_profiler");
    let model =
        SpanBuilder::new("model_prediction", StackLevel::Model, trace_id).start(ctx.clock().now());
    xsp_framework::Session::new(FrameworkKind::TensorFlow, &graph, ctx.clone())
        .predict(&RunOptions::with_layer_profiling(&layers, trace_id));
    server
        .tracer("model_timer")
        .report(model.finish(ctx.clock().now()));
    cupti.flush_to_tracer(&server.tracer("cupti"), trace_id);
    server.drain().spans().to_vec()
}

/// The daemon's merge path: a raw capture, appended in batches that split
/// launch/execution pairs and exported live after every batch, writes the
/// `--from` bytes of what it holds so far, and all four formats of the
/// whole capture at the end.
#[test]
fn a_raw_capture_appended_in_split_batches_exports_the_from_bytes() {
    let capture = raw_capture();
    let launches = capture.iter().filter(|s| s.is_async_launch()).count();
    assert!(launches > 0, "the capture has kernel launches");
    assert!(
        capture
            .iter()
            .all(|s| !(s.is_async_launch() && s.is_async_execution())),
        "no pair is merged yet"
    );
    assert!(
        capture
            .iter()
            .filter(|s| s.level == StackLevel::Kernel)
            .all(|s| s.parent.is_none()),
        "kernels name no parent"
    );
    const BATCH: usize = 5;
    let split = |cut: usize| {
        capture[..cut].iter().any(|l| {
            l.is_async_launch()
                && capture[cut..]
                    .iter()
                    .any(|x| x.is_async_execution() && x.correlation_id() == l.correlation_id())
        })
    };
    assert!(
        (BATCH..capture.len()).step_by(BATCH).any(split),
        "some append boundary separates a launch from its execution"
    );

    let handle = start_daemon();
    let mut c = DaemonClient::connect(handle.socket_path()).expect("connect");
    let session = c.open(&OpenOptions::default()).expect("open");
    let mut held = 0;
    for (i, batch) in capture.chunks(BATCH).enumerate() {
        c.append_spans(session, batch).expect("append");
        held += batch.len();
        let format = ExportFormat::ALL[i % ExportFormat::ALL.len()];
        assert!(
            c.export(session, format).expect("export") == from_bytes(&capture[..held], format),
            "{format} after {held} spans: the live export differs from --from"
        );
    }
    for format in ExportFormat::ALL {
        assert!(
            c.export(session, format).expect("export") == from_bytes(&capture, format),
            "{format}: the live export differs from --from"
        );
    }
    c.close(session).expect("close");
    handle.shutdown();
}
