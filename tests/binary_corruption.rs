//! Adversarial corrupted-input suite for the `.xspb` reader: every way a
//! stream can lie — bad magic, future versions, truncations at arbitrary
//! byte offsets, oversized length prefixes, unknown kinds, undefined
//! symbols, invalid UTF-8, counts that exceed the payload — must surface
//! as a structured [`BinaryReadError`], never a panic and never an
//! attacker-sized allocation.

use xsp_trace::export::{
    read_span_binary, spans_to_binary, BinaryReadError, SpanBinaryReader, MAX_RECORD_LEN,
    XSPB_MAGIC, XSPB_VERSION,
};
use xsp_trace::span::tag_keys;
use xsp_trace::{Span, SpanId, SpanStore, StackLevel, TagValue, TraceId};

/// A small but representative capture: names, a parent link, every tag
/// shape the sample needs, and a log record.
fn sample_spans() -> Vec<Span> {
    let model = Span {
        id: SpanId(1),
        trace_id: TraceId(1),
        name: "predict".into(),
        level: StackLevel::Model,
        start_ns: 0,
        end_ns: 1_000_000,
        parent: None,
        tags: vec![
            ("batch_size".into(), TagValue::U64(4)),
            ("note".into(), TagValue::Str("resnet".into())),
            (tag_keys::ACHIEVED_OCCUPANCY.into(), TagValue::F64(0.5)),
        ],
        logs: vec![xsp_trace::span::LogEvent {
            at_ns: 5,
            message: "warmup".into(),
        }],
    };
    let kernel = Span {
        id: SpanId(2),
        trace_id: TraceId(1),
        name: "volta_scudnn".into(),
        level: StackLevel::Kernel,
        start_ns: 1_000,
        end_ns: 2_000,
        parent: Some(SpanId(1)),
        tags: vec![
            ("stream".into(), TagValue::I64(-7)),
            ("async".into(), TagValue::Bool(true)),
        ],
        logs: Vec::new(),
    };
    vec![model, kernel]
}

/// A hand-built record: `[kind][len: u32 BE][payload]`.
fn record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![kind];
    out.extend((payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// A stream header followed by hand-built records.
fn stream(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = XSPB_MAGIC.to_vec();
    out.push(XSPB_VERSION);
    for r in records {
        out.extend_from_slice(r);
    }
    out
}

/// A name record defining symbol `sym` as `bytes` (not necessarily UTF-8).
fn name_record(sym: u32, bytes: &[u8]) -> Vec<u8> {
    let mut payload = sym.to_be_bytes().to_vec();
    payload.extend_from_slice(bytes);
    record(0x01, &payload)
}

/// A minimal valid span-record payload: name symbol `name_sym`, no parent,
/// no tags, no logs.
fn minimal_span_payload(name_sym: u32) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend(1u64.to_be_bytes()); // id
    p.extend(1u64.to_be_bytes()); // trace_id
    p.extend(name_sym.to_be_bytes()); // name symbol
    p.push(0); // level rank 0
    p.push(0); // flags: no parent
    p.extend(10u64.to_be_bytes()); // start
    p.extend(20u64.to_be_bytes()); // end
    p.extend(0u32.to_be_bytes()); // tag count
    p.extend(0u32.to_be_bytes()); // log count
    p
}

/// Decodes through both paths — owned spans and store ingestion — and
/// asserts they fail identically (same Display text). Returns the error.
fn decode_err(bytes: &[u8]) -> BinaryReadError {
    let span_err = read_span_binary(bytes).expect_err("corrupt stream must not parse");
    let mut store = SpanStore::new();
    let store_err = SpanBinaryReader::new(bytes)
        .read_into_store(&mut store)
        .expect_err("corrupt stream must not ingest");
    assert_eq!(
        span_err.to_string(),
        store_err.to_string(),
        "span-decode and store-ingest paths disagree on the failure"
    );
    span_err
}

#[test]
fn bad_magic_is_rejected_with_the_observed_bytes() {
    let mut bytes = spans_to_binary(&sample_spans());
    bytes[0..4].copy_from_slice(b"JSON");
    match decode_err(&bytes) {
        BinaryReadError::BadMagic(m) => assert_eq!(&m, b"JSON"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A JSONL capture handed to the binary reader fails the same way.
    match decode_err(b"{\"id\":1}\n") {
        BinaryReadError::BadMagic(m) => assert_eq!(&m, b"{\"id"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_rejected_not_misparsed() {
    let mut bytes = spans_to_binary(&sample_spans());
    bytes[4] = 2;
    match decode_err(&bytes) {
        BinaryReadError::UnsupportedVersion(v) => assert_eq!(v, 2),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let err = decode_err(&bytes);
    assert!(
        err.to_string().contains("unsupported .xspb version 2"),
        "{err}"
    );
}

/// Every strict prefix of a valid stream either truncates with a
/// structured error or (at an exact record boundary) parses cleanly as a
/// shorter capture — no offset may panic, hang, or misdecode.
#[test]
fn every_truncation_point_is_a_structured_error_or_a_clean_prefix() {
    let spans = sample_spans();
    let bytes = spans_to_binary(&spans);
    let mut clean_boundaries = 0;
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        match read_span_binary(prefix) {
            Ok(trace) => {
                // Only a record boundary can parse; the spans it yields
                // must be a prefix of the original capture.
                clean_boundaries += 1;
                assert!(trace.len() < spans.len());
                assert_eq!(trace.spans(), &spans[..trace.len()], "cut at {cut}");
            }
            Err(BinaryReadError::Truncated { have, want }) => {
                assert!(have < want, "cut at {cut}: have {have} !< want {want}");
            }
            Err(other) => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
        // The store-ingest path must agree on whether the prefix is clean.
        let mut store = SpanStore::new();
        let ingest = SpanBinaryReader::new(prefix).read_into_store(&mut store);
        match read_span_binary(prefix) {
            Ok(trace) => assert_eq!(ingest.expect("store path agrees"), trace.len()),
            Err(_) => assert!(ingest.is_err(), "store path parsed a torn prefix at {cut}"),
        }
    }
    // Header end + after each name/span record — the capture has two names
    // and two spans interleaved, so at least 3 interior boundaries exist.
    assert!(clean_boundaries >= 3, "only {clean_boundaries} boundaries");
}

#[test]
fn mid_record_eof_reports_promised_versus_present_bytes() {
    let bytes = spans_to_binary(&sample_spans());
    // Cut 3 bytes into the first record's payload (header is 5 bytes,
    // record header 5 more).
    let cut = &bytes[..5 + 5 + 3];
    match decode_err(cut) {
        BinaryReadError::Truncated { have, want } => {
            assert_eq!(have, 3);
            assert!(want > 3);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    let err = decode_err(cut);
    assert!(
        err.to_string().starts_with("truncated record: 3 of "),
        "{err}"
    );
}

/// A length prefix beyond the cap is rejected *before* allocation: a
/// stream of a few dozen bytes announcing a 4 GiB record must fail fast
/// without the process ever reserving the promised size.
#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    for len in [MAX_RECORD_LEN + 1, u32::MAX] {
        let mut rec = vec![0x02u8];
        rec.extend(len.to_be_bytes());
        let bytes = stream(&[rec]);
        match decode_err(&bytes) {
            BinaryReadError::Oversized { len: got } => assert_eq!(got, len),
            other => panic!("expected Oversized for {len}, got {other:?}"),
        }
    }
    // Exactly at the cap the length itself is legal; the stream then
    // merely truncates (proving the bound is checked, not off-by-one).
    let mut rec = vec![0x02u8];
    rec.extend(MAX_RECORD_LEN.to_be_bytes());
    rec.extend([0u8; 64]); // a sliver of the promised payload
    match read_span_binary(&stream(&[rec])[..]) {
        Err(BinaryReadError::Truncated { have, want }) => {
            assert_eq!(have, 64);
            assert_eq!(want, MAX_RECORD_LEN as usize);
        }
        other => panic!("expected Truncated at the cap, got {other:?}"),
    }
}

#[test]
fn unknown_record_kind_is_rejected_before_its_payload_is_trusted() {
    let bytes = stream(&[record(0x7f, b"whatever")]);
    match decode_err(&bytes) {
        BinaryReadError::UnknownRecordKind(k) => assert_eq!(k, 0x7f),
        other => panic!("expected UnknownRecordKind, got {other:?}"),
    }
    // kind 0x00 (off-by-one below Name) is just as unknown.
    let bytes = stream(&[record(0x00, b"")]);
    assert!(matches!(
        decode_err(&bytes),
        BinaryReadError::UnknownRecordKind(0)
    ));
}

#[test]
fn span_referencing_an_undefined_symbol_is_rejected() {
    // No name records at all: symbol 0 is undefined.
    let bytes = stream(&[record(0x02, &minimal_span_payload(0))]);
    match decode_err(&bytes) {
        BinaryReadError::BadSymbol(s) => assert_eq!(s, 0),
        other => panic!("expected BadSymbol, got {other:?}"),
    }
    // One name defined, span points past it.
    let bytes = stream(&[
        name_record(0, b"predict"),
        record(0x02, &minimal_span_payload(7)),
    ]);
    assert!(matches!(decode_err(&bytes), BinaryReadError::BadSymbol(7)));
}

#[test]
fn non_sequential_symbol_definitions_are_rejected() {
    // First name record must define symbol 0; claiming 1 is a gap.
    let bytes = stream(&[name_record(1, b"predict")]);
    match decode_err(&bytes) {
        BinaryReadError::Malformed(what) => {
            assert_eq!(what, "non-sequential symbol definition")
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    // Redefining an existing symbol is the same structural lie.
    let bytes = stream(&[name_record(0, b"a"), name_record(0, b"b")]);
    assert!(matches!(decode_err(&bytes), BinaryReadError::Malformed(_)));
    // A name record too short to even carry its symbol id.
    let bytes = stream(&[record(0x01, &[0, 0])]);
    assert!(matches!(decode_err(&bytes), BinaryReadError::Malformed(_)));
}

#[test]
fn invalid_utf8_in_names_and_logs_is_rejected() {
    let bytes = stream(&[name_record(0, &[0xff, 0xfe, 0x41])]);
    assert!(matches!(decode_err(&bytes), BinaryReadError::Utf8));

    // A log message carrying invalid UTF-8 inside an otherwise-valid span.
    let mut payload = minimal_span_payload(0);
    let log_count_at = payload.len() - 4;
    payload[log_count_at..].copy_from_slice(&1u32.to_be_bytes());
    payload.extend(9u64.to_be_bytes()); // at_ns
    payload.extend(2u32.to_be_bytes()); // message length
    payload.extend([0xc3, 0x28]); // overlong / invalid pair
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    assert!(matches!(decode_err(&bytes), BinaryReadError::Utf8));
}

#[test]
fn unknown_tag_kind_is_rejected() {
    let mut payload = minimal_span_payload(0);
    let tag_count_at = payload.len() - 8;
    payload[tag_count_at..tag_count_at + 4].copy_from_slice(&1u32.to_be_bytes());
    // Splice one tag before the log count: key symbol 0, kind 5 (unknown).
    let mut tag = 0u32.to_be_bytes().to_vec();
    tag.push(5);
    payload.splice(tag_count_at + 4..tag_count_at + 4, tag);
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    match decode_err(&bytes) {
        BinaryReadError::UnknownTagKind(k) => assert_eq!(k, 5),
        other => panic!("expected UnknownTagKind, got {other:?}"),
    }
}

/// Tag and log counts are validated against the bytes actually present
/// *before* any `Vec::with_capacity`: a 30-byte record announcing four
/// billion tags must die as Malformed, not reserve gigabytes.
#[test]
fn lying_element_counts_are_rejected_before_reservation() {
    let mut payload = minimal_span_payload(0);
    let tag_count_at = payload.len() - 8;
    payload[tag_count_at..tag_count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    match decode_err(&bytes) {
        BinaryReadError::Malformed(what) => assert_eq!(what, "tag count exceeds payload"),
        other => panic!("expected Malformed, got {other:?}"),
    }

    let mut payload = minimal_span_payload(0);
    let log_count_at = payload.len() - 4;
    payload[log_count_at..].copy_from_slice(&u32::MAX.to_be_bytes());
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    match decode_err(&bytes) {
        BinaryReadError::Malformed(what) => assert_eq!(what, "log count exceeds payload"),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // A log whose announced message length walks off the payload.
    let mut payload = minimal_span_payload(0);
    let log_count_at = payload.len() - 4;
    payload[log_count_at..].copy_from_slice(&1u32.to_be_bytes());
    payload.extend(9u64.to_be_bytes());
    payload.extend(u32::MAX.to_be_bytes()); // message "length"
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    assert!(matches!(
        decode_err(&bytes),
        BinaryReadError::Malformed("log message exceeds payload")
    ));
}

#[test]
fn structurally_invalid_span_records_are_rejected() {
    // Level rank past StackLevel::ALL.
    let mut payload = minimal_span_payload(0);
    payload[20] = 0xff;
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    assert!(matches!(
        decode_err(&bytes),
        BinaryReadError::Malformed("stack level out of range")
    ));

    // Undefined flag bits.
    let mut payload = minimal_span_payload(0);
    payload[21] = 0x80;
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    assert!(matches!(
        decode_err(&bytes),
        BinaryReadError::Malformed("unknown span flags")
    ));

    // Trailing garbage after a complete span body.
    let mut payload = minimal_span_payload(0);
    payload.push(0xaa);
    let bytes = stream(&[name_record(0, b"predict"), record(0x02, &payload)]);
    assert!(matches!(
        decode_err(&bytes),
        BinaryReadError::Malformed("span record has trailing bytes")
    ));

    // A payload too short for even the fixed head.
    let bytes = stream(&[record(0x02, &[1, 2, 3])]);
    assert!(matches!(decode_err(&bytes), BinaryReadError::Malformed(_)));
}

/// A header-only stream is a valid empty capture; fewer than 5 bytes is a
/// truncation, and the empty input is too (it promised nothing but the
/// format demands a header).
#[test]
fn header_only_and_sub_header_streams() {
    let header = stream(&[]);
    let trace = read_span_binary(&header[..]).expect("bare header is an empty capture");
    assert_eq!(trace.len(), 0);
    for cut in 0..header.len() {
        match read_span_binary(&header[..cut]) {
            Err(BinaryReadError::Truncated { have, want }) => {
                assert_eq!(have, cut);
                assert_eq!(want, 5);
            }
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

/// Random byte flips anywhere in a valid stream must never panic: every
/// outcome is either a clean parse (the flip hit a don't-care bit like a
/// timestamp) or a structured error. A store ingest that fails keeps only
/// the spans the span reader yielded before the same record failed: a
/// record that fails halfway leaves no row behind.
#[test]
fn single_byte_flips_never_panic() {
    let bytes = spans_to_binary(&sample_spans());
    for pos in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            // Both decode paths must terminate without panicking.
            let _ = read_span_binary(&corrupt[..]);
            let yielded = SpanBinaryReader::new(&corrupt[..])
                .take_while(Result::is_ok)
                .count();
            let mut store = SpanStore::new();
            let _ = SpanBinaryReader::new(&corrupt[..]).read_into_store(&mut store);
            assert_eq!(
                store.len(),
                yielded,
                "byte {pos} ^ {flip:#04x}: the store kept a different span count"
            );
        }
    }
}

/// An I/O failure mid-stream surfaces as `Io`, distinct from truncation:
/// a reader that dies is not a stream that ended.
#[test]
fn io_errors_are_not_conflated_with_truncation() {
    struct FailAfter {
        data: Vec<u8>,
        pos: usize,
    }
    impl std::io::Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::other("disk on fire"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }
    let bytes = spans_to_binary(&sample_spans());
    let src = FailAfter {
        data: bytes[..bytes.len() - 4].to_vec(),
        pos: 0,
    };
    match read_span_binary(src) {
        Err(BinaryReadError::Io(e)) => assert_eq!(e.to_string(), "disk on fire"),
        other => panic!("expected Io, got {other:?}"),
    }
}
