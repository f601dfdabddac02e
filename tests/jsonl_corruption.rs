//! Adversarial corrupted-input suite for the span-JSON-lines reader — the
//! parser the daemon runs on every JSONL Append straight off its socket.
//! Every truncation and every byte flip (each single bit, and the whole
//! byte) of a real M/L/G capture line, a string that is not UTF-8, and the
//! `null` a non-finite float is written as must each end in `Ok` or a
//! structured [`ReadError`], never a panic; and wherever the reader says
//! `Ok`, it must agree with `serde_json::from_str::<Span>` line by line.

use xsp_core::export::{export_profile, ExportFormat};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::export::{read_span_json_lines, ReadError};
use xsp_trace::Span;

/// The capture line with the most tags (a kernel launch with its launch
/// parameters and metrics) from MobileNet_v1_0.25_128 @ b1 at M/L/G.
fn capture_line() -> Vec<u8> {
    let profile = Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .parallelism(Parallelism::Serial),
    )
    .run(
        ProfileRequest::new(&zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1))
            .level(ProfilingLevel::ModelLayerGpu),
    );
    let mut jsonl = Vec::new();
    export_profile(&profile, ExportFormat::Spans, &mut jsonl).expect("Vec export cannot fail");
    let line = jsonl
        .split_inclusive(|&b| b == b'\n')
        .max_by_key(|line| line.iter().filter(|&&b| b == b'[').count())
        .expect("the capture has spans");
    let text = std::str::from_utf8(line).expect("capture lines are UTF-8");
    let span: Span = serde_json::from_str(text.trim_end()).expect("capture lines parse");
    assert!(span.parent.is_some() && span.tags.len() >= 5, "{span:?}");
    line.to_vec()
}

/// What the reader accepts: each line (blank ones skipped) through
/// `serde_json::from_str::<Span>`, refusing a span that ends before it
/// starts — a flipped timestamp digit can produce one.
fn reference_read(bytes: &[u8]) -> Option<Vec<Span>> {
    let mut spans = Vec::new();
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let text = std::str::from_utf8(line).ok()?;
        let text = text.trim_end_matches(['\n', '\r']);
        if text.trim().is_empty() {
            continue;
        }
        let span = serde_json::from_str::<Span>(text).ok()?;
        if span.end_ns < span.start_ns {
            return None;
        }
        spans.push(span);
    }
    Some(spans)
}

/// Reads `bytes`, demanding a structured outcome that agrees with the
/// reference; returns the error line on failure.
fn read_checked(bytes: &[u8]) -> Option<usize> {
    let reference = reference_read(bytes);
    match read_span_json_lines(bytes) {
        Ok(trace) => {
            assert_eq!(
                Some(trace.spans()),
                reference.as_deref(),
                "reader and serde_json disagree on {:?}",
                String::from_utf8_lossy(bytes)
            );
            None
        }
        Err(ReadError::Parse { line, .. }) => {
            assert_eq!(
                reference,
                None,
                "reader refused what serde_json accepts: {:?}",
                String::from_utf8_lossy(bytes)
            );
            Some(line)
        }
        Err(ReadError::Io(e)) => panic!("an in-memory read cannot fail with I/O: {e}"),
    }
}

#[test]
fn every_truncation_is_a_span_or_a_parse_error() {
    let line = capture_line();
    let body = line.len() - 1; // without the newline
    for len in 0..=line.len() {
        let failed_at = read_checked(&line[..len]);
        if len == 0 || len >= body {
            assert_eq!(failed_at, None, "prefix of {len} bytes");
        } else {
            assert_eq!(failed_at, Some(1), "prefix of {len} bytes");
        }
    }
}

#[test]
fn every_byte_flip_is_a_span_or_a_parse_error() {
    let line = capture_line();
    let (mut accepted, mut refused) = (0, 0);
    for at in 0..line.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            let mut flipped = line.clone();
            flipped[at] ^= mask;
            match read_checked(&flipped) {
                None => accepted += 1,
                Some(failed_at) => {
                    // A flip into '\n' splits the line in two.
                    assert!(
                        failed_at <= 2,
                        "flip {at}^{mask:#04x} failed at line {failed_at}"
                    );
                    refused += 1;
                }
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn invalid_utf8_in_a_string_names_its_line() {
    let good = capture_line();
    let mut bad = good.clone();
    let name = bad
        .windows(8)
        .position(|w| w == b"\"name\":\"")
        .expect("a span has a name")
        + 8;
    bad[name] = 0xff;
    let mut bytes = good;
    bytes.extend_from_slice(&bad);
    match read_span_json_lines(&bytes[..]) {
        Err(e @ ReadError::Parse { line: 2, .. }) => {
            assert!(e.to_string().contains("line 2"), "{e}");
        }
        other => panic!("expected a parse error on line 2, got {other:?}"),
    }
}

#[test]
fn a_non_finite_float_tag_names_its_line() {
    let line = r#"{"id":1,"trace_id":1,"name":"k","level":"Kernel","start_ns":0,"end_ns":1,"parent":null,"tags":[["occ",{"F64":null}]],"logs":[]}"#;
    let bytes = format!("\n{line}\n");
    match read_span_json_lines(bytes.as_bytes()) {
        Err(e @ ReadError::Parse { line: 2, .. }) => {
            assert!(e.to_string().contains("line 2"), "{e}");
        }
        other => panic!("expected a parse error on line 2, got {other:?}"),
    }
}
