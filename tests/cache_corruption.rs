//! Adversarial corrupted-input suite for the `.xspc` reader: every way a
//! cache file can lie — bad magic, future versions, truncations at
//! arbitrary byte offsets, oversized length prefixes, unknown record
//! kinds, malformed meta, run-count mismatches, trailing garbage — must
//! surface as a structured [`XspcReadError`], never a panic and never an
//! attacker-sized allocation. The same contract `tests/binary_corruption.rs`
//! pins for the `.xspb` layer underneath.

use xsp_core::cache::{
    read_xspc, xspc_to_bytes, GraphFingerprint, XspcReadError, XSPC_MAGIC, XSPC_MAX_RECORD_LEN,
    XSPC_VERSION,
};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::builder::GraphBuilder;
use xsp_trace::export::to_folded_stacks;

/// A small but representative envelope under a known fingerprint: one run
/// in each bucket (M, M/L, M/L/G and a metric run) of a small CNN, so the
/// run records carry layers, kernels and metric tags.
fn sample() -> (GraphFingerprint, Vec<u8>) {
    let mut b = GraphBuilder::new(1, 3, 32, 32);
    b.conv(16, 3, 1, 1).bias_add().relu();
    b.maxpool(2, 2);
    b.fc(10).softmax();
    let profile = Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .seed(11),
    )
    .run(ProfileRequest::new(&b.finish()).level(ProfilingLevel::ModelLayerGpu));
    let fp = GraphFingerprint(0x00c0ffee_00c0ffee_00c0ffee_00c0ffee);
    let bytes = xspc_to_bytes(fp, &profile);
    (fp, bytes)
}

/// A hand-built record: `[kind][len: u32 BE][payload]`.
fn record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![kind];
    out.extend((payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// An envelope header (magic + version + fingerprint) followed by
/// hand-built records.
fn stream(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = XSPC_MAGIC.to_vec();
    out.push(XSPC_VERSION);
    out.extend(7u128.to_be_bytes());
    for r in records {
        out.extend_from_slice(r);
    }
    out
}

fn read(bytes: &[u8]) -> Result<(GraphFingerprint, xsp_core::LeveledProfile), XspcReadError> {
    read_xspc(&mut &bytes[..])
}

#[test]
fn valid_sample_round_trips() {
    let (fp, bytes) = sample();
    let (read_fp, profile) = read(&bytes).expect("the uncorrupted sample must parse");
    assert_eq!(read_fp, fp);
    assert_eq!(profile.runs().count(), 4, "M, M/L, M/L/G and metric runs");
    assert!(profile.metric_runs[0]
        .kernels()
        .iter()
        .any(|k| k.flops.is_some()));
}

#[test]
fn bad_magic_is_refused() {
    let (_, mut bytes) = sample();
    bytes[0] = b'Z';
    assert!(matches!(read(&bytes), Err(XspcReadError::BadMagic)));
}

#[test]
fn future_version_is_refused() {
    let (_, mut bytes) = sample();
    bytes[4] = XSPC_VERSION + 1;
    assert!(matches!(
        read(&bytes),
        Err(XspcReadError::UnsupportedVersion(v)) if v == XSPC_VERSION + 1
    ));
}

#[test]
fn truncation_at_every_offset_is_a_structured_error() {
    let (_, bytes) = sample();
    for cut in 0..bytes.len() {
        let err = read(&bytes[..cut]).expect_err("every prefix is incomplete");
        // Any structured error is acceptable; a panic or a success is not.
        let _ = err.to_string();
    }
}

#[test]
fn oversized_record_is_refused_before_allocation() {
    // A length field claiming 4 GiB must be rejected by the cap check, not
    // by the allocator: the stream carries only the 5 header bytes.
    let mut rec = vec![0x01];
    rec.extend((XSPC_MAX_RECORD_LEN + 1).to_be_bytes());
    let bytes = stream(&[rec]);
    assert!(matches!(
        read(&bytes),
        Err(XspcReadError::Oversized { len }) if len == XSPC_MAX_RECORD_LEN + 1
    ));
}

#[test]
fn unknown_record_kind_is_refused() {
    let bytes = stream(&[record(0x7f, b"")]);
    assert!(matches!(
        read(&bytes),
        Err(XspcReadError::UnknownRecordKind(0x7f))
    ));
}

#[test]
fn run_record_before_meta_is_malformed() {
    let bytes = stream(&[record(0x02, b"")]);
    assert!(matches!(read(&bytes), Err(XspcReadError::Malformed(_))));
}

#[test]
fn missing_meta_is_malformed() {
    let bytes = stream(&[]);
    assert!(matches!(read(&bytes), Err(XspcReadError::Malformed(_))));
}

#[test]
fn non_json_meta_is_malformed() {
    // Nesting far past the JSON reader's recursion limit is refused like
    // any other malformed meta, not by overflowing the stack.
    let depth = 100_000;
    let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    for meta in [&b"\xff\xfe not json"[..], deep.as_bytes()] {
        let bytes = stream(&[record(0x01, meta)]);
        assert!(matches!(read(&bytes), Err(XspcReadError::Malformed(_))));
    }
}

#[test]
fn meta_missing_fields_is_malformed() {
    for meta in [
        "{}",
        r#"{"trim_bits": 0}"#,
        r#"{"trim_bits": 0, "batch": 1}"#,
        r#"{"trim_bits": 0, "batch": 1, "runs": [{}]}"#,
        r#"{"trim_bits": 0, "batch": 1, "runs": [{"bucket": "nope", "level": "1", "rerun": false}]}"#,
        r#"{"trim_bits": 0, "batch": 1, "runs": [{"bucket": "m", "level": "bogus", "rerun": false}]}"#,
    ] {
        let bytes = stream(&[record(0x01, meta.as_bytes())]);
        assert!(
            matches!(read(&bytes), Err(XspcReadError::Malformed(_))),
            "meta {meta:?} must be refused as malformed"
        );
    }
}

#[test]
fn run_count_mismatch_is_malformed() {
    // Meta announces one run but the stream ends: structured refusal.
    let meta =
        r#"{"trim_bits": 0, "batch": 1, "runs": [{"bucket": "m", "level": "1", "rerun": false}]}"#;
    let bytes = stream(&[record(0x01, meta.as_bytes())]);
    assert!(matches!(read(&bytes), Err(XspcReadError::Malformed(_))));
}

#[test]
fn corrupt_embedded_span_stream_is_refused() {
    let meta =
        r#"{"trim_bits": 0, "batch": 1, "runs": [{"bucket": "m", "level": "1", "rerun": false}]}"#;
    let bytes = stream(&[record(0x01, meta.as_bytes()), record(0x02, b"not xspb")]);
    assert!(matches!(read(&bytes), Err(XspcReadError::Spans(_))));
}

#[test]
fn trailing_records_are_refused() {
    let (_, mut bytes) = sample();
    let trailer = record(0x01, b"{}");
    bytes.extend_from_slice(&trailer);
    assert!(matches!(read(&bytes), Err(XspcReadError::Malformed(_))));
}

/// Flip every byte of a valid envelope, one at a time: the reader must
/// always return (a profile or a structured error), never panic. A run is
/// decoded on first use, so every run of a flipped file that loads must
/// then decode, extract and export without panicking.
#[test]
fn single_byte_flips_never_panic() {
    let (_, bytes) = sample();
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x40;
        match read(&corrupted) {
            Ok((_, profile)) => {
                // A tolerated flip (e.g. inside the fingerprint, a span id
                // or a name byte): force everything a reader can touch.
                for run in profile.runs() {
                    let walked = run.trace.len();
                    assert_eq!(run.trace.iter_spans().count(), walked);
                    let _ = (run.layers().len(), run.kernels().len(), run.phases());
                    let _ = to_folded_stacks(&run.trace);
                }
            }
            Err(err) => {
                let _ = err.to_string();
            }
        }
    }
}
