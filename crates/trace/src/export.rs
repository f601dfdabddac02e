//! Trace export: Chrome trace-event JSON (loadable in `chrome://tracing` /
//! Perfetto), Brendan-Gregg folded stacks, and raw span JSON for offline
//! analysis pipelines.
//!
//! The string-returning functions here are thin wrappers over the
//! incremental writers in [`stream`]: they serialize through exactly the
//! same code path into an in-memory buffer, so a streamed export to a file
//! or socket is byte-identical to the materialized `String`. Sweep-scale
//! traces should use the [`stream`] writers directly and never hold the
//! full serialized trace in memory.

use crate::server::Trace;
use crate::span::Span;

pub mod binary;
mod json;
pub mod stream;

pub use binary::{
    is_xspb_prefix, read_span_binary, spans_to_binary, BinaryReadError, SpanBinaryReader,
    SpanBinaryWriter, ValidatedSpanBinary, MAX_RECORD_LEN, XSPB_MAGIC, XSPB_VERSION,
};
pub use stream::{
    read_span_json_lines, read_span_json_lines_into_store, ChromeTraceWriter, FoldedStacksWriter,
    ReadError, SpanJsonLinesReader, SpanJsonLinesWriter, SpanJsonWriter,
};

/// Serializes a trace to Chrome trace-event JSON. Each stack level maps to
/// its own "thread" row so the across-stack timeline reads top-down like
/// Figure 1 of the paper.
pub fn to_chrome_trace(trace: &Trace) -> String {
    to_chrome_trace_of(trace.spans().iter())
}

/// The iterator twin of [`to_chrome_trace`]: serializes any borrowed span
/// sequence (e.g. a [`crate::correlate::CorrelatedTrace`] view) to Chrome
/// trace-event JSON without materializing an intermediate [`Trace`].
pub fn to_chrome_trace_of<'a>(spans: impl Iterator<Item = &'a Span>) -> String {
    let mut writer = stream::ChromeTraceWriter::new(Vec::new()).expect("Vec writes cannot fail");
    for span in spans {
        writer.write_span(span).expect("Vec writes cannot fail");
    }
    String::from_utf8(writer.finish().expect("Vec writes cannot fail"))
        .expect("chrome trace output is UTF-8")
}

/// Serializes a correlated trace to Brendan-Gregg folded-stack format, one
/// line per leaf span: `model_prediction;conv2d/Conv2D;volta_scudnn 1234`
/// (weight = self time in microseconds). Feed to `flamegraph.pl` or
/// speedscope.
pub fn to_folded_stacks(trace: &crate::correlate::CorrelatedTrace) -> String {
    let mut writer = stream::FoldedStacksWriter::new(Vec::new());
    writer.write_run(trace).expect("Vec writes cannot fail");
    String::from_utf8(writer.finish().expect("Vec writes cannot fail"))
        .expect("folded stack output is UTF-8")
}

/// Serializes the raw spans to JSON (offline-analysis input format).
pub fn to_span_json(trace: &Trace) -> String {
    let mut writer = stream::SpanJsonWriter::new(Vec::new()).expect("Vec writes cannot fail");
    writer.write_trace(trace).expect("Vec writes cannot fail");
    String::from_utf8(writer.finish().expect("Vec writes cannot fail"))
        .expect("span JSON output is UTF-8")
}

/// Deserializes spans previously written by [`to_span_json`]; this is the
/// offline conversion path (§III-A: conversion "can be performed off-line by
/// processing the output of the profiler").
pub fn from_span_json(json: &str) -> Result<Trace, xsp_json::Error> {
    json::parse_span_array(json).map(Trace::from_spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanBuilder, StackLevel, TraceId};

    fn sample_trace() -> Trace {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .tag("batch_size", 256u64)
            .finish(1_000_000);
        let pid = model.id;
        let layer = SpanBuilder::new("conv2d/Conv2D", StackLevel::Layer, TraceId(1))
            .start(1_000)
            .parent(pid)
            .tag("occ", 0.5f64)
            .finish(500_000);
        Trace::from_spans(vec![model, layer])
    }

    #[test]
    fn chrome_trace_shape() {
        let json = to_chrome_trace(&sample_trace());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["cat"], "model");
        assert_eq!(events[1]["cat"], "layer");
        assert_eq!(events[1]["tid"], 2); // layer rank
        assert!(events[1]["args"]["parent"].is_u64());
        // ns -> µs conversion
        assert_eq!(events[0]["dur"].as_f64().unwrap(), 1_000.0);
    }

    #[test]
    fn span_json_roundtrip() {
        let trace = sample_trace();
        let json = to_span_json(&trace);
        let back = from_span_json(&json).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(back.spans()[0].name, "predict");
        assert_eq!(back.spans()[1].parent, trace.spans()[1].parent);
        assert_eq!(
            back.spans()[0].tag("batch_size").unwrap().as_u64(),
            Some(256)
        );
    }

    #[test]
    fn span_json_wrapper_matches_direct_serialization() {
        // The pre-streaming exporter was serde_json::to_string(spans);
        // the wrapper must reproduce it byte-for-byte.
        let trace = sample_trace();
        assert_eq!(
            to_span_json(&trace),
            serde_json::to_string(trace.spans()).unwrap()
        );
        assert_eq!(to_span_json(&Trace::default()), "[]");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(from_span_json("not json").is_err());
    }

    #[test]
    fn folded_stacks_weight_self_time() {
        use crate::correlate::reconstruct_parents;
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .finish(10_000_000); // 10 ms
        let layer = SpanBuilder::new("conv", StackLevel::Layer, TraceId(1))
            .start(1_000_000)
            .finish(9_000_000); // 8 ms
        let kernel = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1))
            .start(2_000_000)
            .finish(8_000_000); // 6 ms
        let c = reconstruct_parents(&Trace::from_spans(vec![model, layer, kernel]));
        let folded = to_folded_stacks(&c);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3, "{folded}");
        assert!(lines.contains(&"predict 2000"), "{folded}"); // 10-8 ms self
        assert!(lines.contains(&"predict;conv 2000"), "{folded}");
        assert!(lines.contains(&"predict;conv;k 6000"), "{folded}");
    }

    #[test]
    fn folded_stacks_sanitize_names() {
        use crate::correlate::reconstruct_parents;
        let s = SpanBuilder::new("has space;semi", StackLevel::Model, TraceId(1))
            .start(0)
            .finish(2_000);
        let c = reconstruct_parents(&Trace::from_spans(vec![s]));
        let folded = to_folded_stacks(&c);
        assert!(folded.starts_with("has_space_semi "), "{folded}");
    }
}
