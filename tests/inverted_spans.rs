//! A span that ends before it starts is refused where spans are decoded:
//! the span-JSON-lines reader answers `ReadError::Parse` naming the line,
//! the span-JSON array reader a data error, the `.xspb` reader
//! `BinaryReadError::Malformed`, and `xsp export --from` an `error:` line
//! with exit status 1 — never a panic in the interval arithmetic, and
//! never an absurd duration in the output.

use std::path::PathBuf;
use std::process::Command;
use xsp_core::export::{export_profile, ExportFormat};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::export::{
    from_span_json, read_span_binary, read_span_json_lines, spans_to_binary, to_span_json,
    BinaryReadError, ReadError, SpanJsonLinesWriter,
};
use xsp_trace::{Span, SpanBuilder, StackLevel, Trace, TraceId};

/// Two spans: a `Model` span from 500 to 100, and a parentless `Kernel`
/// span from 200 to 300. The bad span is the first.
fn tiny_capture() -> (Vec<Span>, usize) {
    let mut model = SpanBuilder::new("model_prediction", StackLevel::Model, TraceId(1))
        .start(100)
        .finish(500);
    (model.start_ns, model.end_ns) = (500, 100);
    let kernel = SpanBuilder::new("volta_sgemm", StackLevel::Kernel, TraceId(1))
        .start(200)
        .finish(300);
    (vec![model, kernel], 0)
}

/// A real bert-base M/L/G capture whose `model_prediction` span has its
/// timestamps swapped; returns the spans and the bad span's index.
fn bert_capture() -> (Vec<Span>, usize) {
    let profile = Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .parallelism(Parallelism::Serial),
    )
    .run(
        ProfileRequest::new(&zoo::lookup("bert-base").unwrap().graph(1))
            .level(ProfilingLevel::ModelLayerGpu),
    );
    let mut capture = Vec::new();
    export_profile(&profile, ExportFormat::Spans, &mut capture).unwrap();
    let mut spans = read_span_json_lines(&capture[..]).unwrap().into_spans();
    let bad = spans
        .iter()
        .position(|s| s.name == "model_prediction")
        .expect("the capture has a model_prediction span");
    let span = &mut spans[bad];
    std::mem::swap(&mut span.start_ns, &mut span.end_ns);
    assert!(span.end_ns < span.start_ns, "the swap inverted the span");
    (spans, bad)
}

fn jsonl(spans: &[Span]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut writer = SpanJsonLinesWriter::new(&mut out);
    for span in spans {
        writer.write_span(span).unwrap();
    }
    writer.finish().unwrap();
    out
}

/// Every reader refuses the capture with a structured error.
fn assert_readers_refuse((spans, bad): (Vec<Span>, usize)) {
    match read_span_json_lines(&jsonl(&spans)[..]) {
        Err(e @ ReadError::Parse { line, .. }) => {
            assert_eq!(line, bad + 1, "names the inverted span's line");
            assert!(e.to_string().contains("before"), "says why: {e}");
        }
        other => panic!("JSONL reader accepted an inverted span: {other:?}"),
    }
    let array = to_span_json(&Trace::from_spans(spans.clone()));
    let err = from_span_json(&array).expect_err("array reader accepted an inverted span");
    assert!(err.to_string().contains("before"), "says why: {err}");
    match read_span_binary(&spans_to_binary(&spans)[..]) {
        Err(BinaryReadError::Malformed(msg)) => assert!(msg.contains("before"), "{msg}"),
        other => panic!(".xspb reader accepted an inverted span: {other:?}"),
    }
}

#[test]
fn readers_refuse_an_inverted_span_in_a_two_span_capture() {
    assert_readers_refuse(tiny_capture());
}

#[test]
fn readers_refuse_an_inverted_model_span_in_a_bert_capture() {
    assert_readers_refuse(bert_capture());
}

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("xsp-inverted-spans-{}", std::process::id()))
}

fn temp_file(name: &str) -> PathBuf {
    std::fs::create_dir_all(temp_dir()).unwrap();
    temp_dir().join(name)
}

/// `xsp export --from` on the capture, in both encodings and every output
/// format: `error:` on stderr and exit status 1.
fn assert_cli_refuses(label: &str, spans: &[Span]) {
    for (ext, bytes) in [("jsonl", jsonl(spans)), ("xspb", spans_to_binary(spans))] {
        let capture = temp_file(&format!("{label}.{ext}"));
        std::fs::write(&capture, bytes).unwrap();
        for format in ["spans", "xspb", "chrome", "folded"] {
            let out = Command::new(env!("CARGO_BIN_EXE_xsp"))
                .arg("export")
                .arg("--from")
                .arg(&capture)
                .args(["--format", format, "-o"])
                .arg(temp_file(&format!("{label}.{ext}.{format}")))
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{label}.{ext} -> {format}: {stderr}"
            );
            assert!(
                stderr.contains("error:"),
                "{label}.{ext} -> {format}: {stderr}"
            );
        }
        std::fs::remove_file(&capture).ok();
    }
}

#[test]
fn cli_export_from_refuses_inverted_spans() {
    assert_cli_refuses("tiny", &tiny_capture().0);
    assert_cli_refuses("bert", &bert_capture().0);
    std::fs::remove_dir_all(temp_dir()).ok();
}
