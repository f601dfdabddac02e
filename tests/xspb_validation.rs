//! The `.xspb` validation walk ([`ValidatedSpanBinary::new`]) accepts
//! exactly the streams [`SpanBinaryReader`] decodes to the end, with the
//! same span count, the same first run id and the same error. The profile
//! cache relies on this: it validates every run of a `.xspc` file at load
//! and decodes a run only when a reader first touches it, so a stream the
//! walk accepts must never fail (or panic) to decode later.
//!
//! Covered: a real M/L/G run with metric tags cut at every offset and
//! flipped at every byte, plus hand-built streams for each rule a walk
//! that builds nothing could get wrong.

use xsp_core::pipeline::run_once_with_metrics;
use xsp_core::profile::{ProfilingLevel, XspConfig};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::builder::GraphBuilder;
use xsp_trace::export::{
    spans_to_binary, BinaryReadError, SpanBinaryReader, ValidatedSpanBinary, XSPB_MAGIC,
    XSPB_VERSION,
};
use xsp_trace::span::tag_keys;
use xsp_trace::{Span, TraceId};

/// One M/L/G run of a small CNN with every hardware metric collected, as
/// `.xspb`: name records, parents, and string, integer, float and boolean
/// tags. The graph is small so that the sweeps below stay quick.
fn metric_run() -> Vec<u8> {
    let mut cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow);
    cfg.metrics = xsp_cupti::MetricKind::ALL.to_vec();
    let mut b = GraphBuilder::new(1, 3, 32, 32);
    b.conv(16, 3, 1, 1).bias_add().relu();
    b.maxpool(2, 2);
    b.fc(10).softmax();
    let run = run_once_with_metrics(&cfg, &b.finish(), ProfilingLevel::ModelLayerGpu, 0, true);
    spans_to_binary(run.trace.spans())
}

/// Asserts that the walk and the reader agree on `bytes`: both accept with
/// the same spans, or both refuse with the same error.
fn assert_agree(bytes: &[u8]) -> Result<usize, BinaryReadError> {
    let decoded: Result<Vec<Span>, BinaryReadError> = SpanBinaryReader::new(bytes).collect();
    match (decoded, ValidatedSpanBinary::new(bytes.to_vec())) {
        (Ok(spans), Ok(valid)) => {
            assert_eq!(valid.len(), spans.len());
            assert_eq!(valid.first_trace_id(), spans.first().map(|s| s.trace_id));
            assert_eq!(valid.decode(), spans);
            Ok(valid.len())
        }
        (Err(decode), Err(walk)) => {
            assert_eq!(walk.to_string(), decode.to_string());
            Err(walk)
        }
        (decode, walk) => panic!(
            "the reader says {:?} but the walk says {:?}",
            decode.map(|s| s.len()),
            walk.map(|v| v.len())
        ),
    }
}

/// A hand-built record: `[kind][len: u32 BE][payload]`.
fn record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![kind];
    out.extend((payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// A name record defining symbol `sym` as `bytes` (not necessarily UTF-8).
fn name(sym: u32, bytes: &[u8]) -> Vec<u8> {
    let mut payload = sym.to_be_bytes().to_vec();
    payload.extend_from_slice(bytes);
    record(0x01, &payload)
}

/// A span record named by symbol `name_sym`, running from `start` to `end`,
/// with `tags` as `(key symbol, kind, value bytes)`, `logs` as `(at, message
/// bytes)`, and `trailing` bytes after the logs.
fn span(
    name_sym: u32,
    (start, end): (u64, u64),
    tags: &[(u32, u8, &[u8])],
    logs: &[(u64, &[u8])],
    trailing: &[u8],
) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend(1u64.to_be_bytes()); // id
    p.extend(3u64.to_be_bytes()); // trace id
    p.extend(name_sym.to_be_bytes());
    p.push(0); // level rank 0
    p.push(0); // flags: no parent
    p.extend(start.to_be_bytes());
    p.extend(end.to_be_bytes());
    p.extend((tags.len() as u32).to_be_bytes());
    for (key, kind, value) in tags {
        p.extend(key.to_be_bytes());
        p.push(*kind);
        p.extend_from_slice(value);
    }
    p.extend((logs.len() as u32).to_be_bytes());
    for (at, message) in logs {
        p.extend(at.to_be_bytes());
        p.extend((message.len() as u32).to_be_bytes());
        p.extend_from_slice(message);
    }
    p.extend_from_slice(trailing);
    record(0x02, &p)
}

/// A stream header followed by `records`.
fn stream(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = XSPB_MAGIC.to_vec();
    out.push(XSPB_VERSION);
    for r in records {
        out.extend_from_slice(r);
    }
    out
}

#[test]
fn a_real_metric_run_validates_to_its_span_count() {
    let bytes = metric_run();
    let spans = assert_agree(&bytes).expect("an encoded run is valid");
    assert!(spans > 20, "{spans} spans");
    let valid = ValidatedSpanBinary::new(bytes).unwrap();
    assert_eq!(valid.first_trace_id(), Some(TraceId(1)));
    assert!(
        valid
            .decode()
            .iter()
            .any(|s| s.tag(tag_keys::FLOP_COUNT_SP).is_some()),
        "the run carries metric tags"
    );
}

#[test]
fn every_truncation_agrees_with_the_reader() {
    let bytes = metric_run();
    let spans = assert_agree(&bytes).unwrap();
    let mut clean_prefixes = 0;
    for cut in 0..bytes.len() {
        if assert_agree(&bytes[..cut]).is_ok() {
            clean_prefixes += 1;
        }
    }
    // A cut at a record boundary is itself a whole stream: at least the
    // header alone and one cut after each span but the last.
    assert!(
        clean_prefixes >= spans,
        "{clean_prefixes} whole-stream prefixes"
    );
}

#[test]
fn every_single_byte_flip_agrees_with_the_reader() {
    let bytes = metric_run();
    let (mut accepted, mut refused) = (0, 0);
    for mask in [0x40u8, 0xFF] {
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= mask;
            match assert_agree(&flipped) {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn a_well_formed_hand_built_stream_is_accepted() {
    let bytes = stream(&[
        name(0, b"predict"),
        name(1, b"note"),
        span(
            0,
            (10, 20),
            &[(1, 0, &0u32.to_be_bytes())],
            &[(12, b"warm")],
            &[],
        ),
    ]);
    assert_eq!(assert_agree(&bytes).unwrap(), 1);
}

#[test]
fn a_symbol_defined_after_its_span_is_refused() {
    let bytes = stream(&[span(0, (10, 20), &[], &[], &[]), name(0, b"predict")]);
    assert!(matches!(
        assert_agree(&bytes),
        Err(BinaryReadError::BadSymbol(0))
    ));
    // The same holds for a tag key and a string tag value.
    let bytes = stream(&[
        name(0, b"predict"),
        span(0, (10, 20), &[(1, 2, &7u64.to_be_bytes())], &[], &[]),
        name(1, b"key"),
    ]);
    assert!(matches!(
        assert_agree(&bytes),
        Err(BinaryReadError::BadSymbol(1))
    ));
    let bytes = stream(&[
        name(0, b"predict"),
        span(0, (10, 20), &[(0, 0, &1u32.to_be_bytes())], &[], &[]),
        name(1, b"value"),
    ]);
    assert!(matches!(
        assert_agree(&bytes),
        Err(BinaryReadError::BadSymbol(1))
    ));
}

#[test]
fn an_unknown_tag_kind_is_refused() {
    let bytes = stream(&[
        name(0, b"predict"),
        span(0, (10, 20), &[(0, 9, &[])], &[], &[]),
    ]);
    assert!(matches!(
        assert_agree(&bytes),
        Err(BinaryReadError::UnknownTagKind(9))
    ));
}

#[test]
fn a_span_that_ends_before_it_starts_is_refused() {
    let bytes = stream(&[name(0, b"predict"), span(0, (20, 10), &[], &[], &[])]);
    assert!(matches!(
        assert_agree(&bytes),
        Err(BinaryReadError::Malformed(_))
    ));
}

#[test]
fn invalid_utf8_in_a_name_or_a_log_is_refused() {
    let bytes = stream(&[name(0, &[0xff, 0xfe, 0x41])]);
    assert!(matches!(assert_agree(&bytes), Err(BinaryReadError::Utf8)));
    let bytes = stream(&[
        name(0, b"predict"),
        span(0, (10, 20), &[], &[(12, &[0xc3, 0x28])], &[]),
    ]);
    assert!(matches!(assert_agree(&bytes), Err(BinaryReadError::Utf8)));
}

#[test]
fn trailing_bytes_in_a_span_record_are_refused() {
    let bytes = stream(&[name(0, b"predict"), span(0, (10, 20), &[], &[], &[0])]);
    assert!(matches!(
        assert_agree(&bytes),
        Err(BinaryReadError::Malformed(_))
    ));
}
