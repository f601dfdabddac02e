//! Application-level profiling (§III-E): "adding an application profiling
//! level above the model level to measure whole applications (possibly
//! distributed and using more than one ML model) is naturally supported by
//! XSP as it uses distributed tracing."
//!
//! This example profiles a two-model cascade — a detector followed by a
//! classifier on the detected regions — under one application span, then
//! streams the raw timeline off the tracing server to a span-JSON-lines
//! file and correlates it *from the file* — the off-line conversion path of
//! §III-A ("the conversion ... can be performed off-line by processing the
//! output of the profiler").
//!
//! Run with: `cargo run --release --example application_pipeline`

use std::sync::Arc;
use xsp_core::api::start_span_at_level;
use xsp_framework::{FrameworkKind, RunOptions, Session};
use xsp_gpu::{systems, CudaContext, CudaContextConfig};
use xsp_models::zoo;
use xsp_trace::export::{read_span_json_lines, SpanJsonLinesWriter};
use xsp_trace::{reconstruct_parents, SpanTree, StackLevel, TracingServer};

fn main() {
    let server = TracingServer::new();
    let trace_id = server.fresh_trace_id();
    let app_tracer = server.tracer("application");
    let model_tracer = server.tracer("model_timer");
    let layer_tracer = server.tracer("framework_profiler");

    let ctx = Arc::new(CudaContext::new(
        CudaContextConfig::new(systems::tesla_v100()).seed(7),
    ));
    let clock = ctx.clock().clone();

    // Whole-application span above the model level.
    let app = start_span_at_level(
        &app_tracer,
        &clock,
        trace_id,
        "smart_camera_pipeline",
        StackLevel::Application,
    );

    // Stage 1: detector.
    let detector = Session::new(
        FrameworkKind::TensorFlow,
        &zoo::by_name("MLPerf_SSD_MobileNet_v1_300x300")
            .unwrap()
            .graph(1),
        ctx.clone(),
    );
    let det_span = start_span_at_level(
        &model_tracer,
        &clock,
        trace_id,
        "detector_prediction",
        StackLevel::Model,
    );
    detector.predict(&RunOptions::with_layer_profiling(&layer_tracer, trace_id));
    det_span.finish();

    // Stage 2: classifier over the detected crops (batch 8).
    let classifier = Session::new(
        FrameworkKind::TensorFlow,
        &zoo::by_name("MobileNet_v1_1.0_224").unwrap().graph(8),
        ctx.clone(),
    );
    let cls_span = start_span_at_level(
        &model_tracer,
        &clock,
        trace_id,
        "classifier_prediction",
        StackLevel::Model,
    );
    classifier.predict(&RunOptions::with_layer_profiling(&layer_tracer, trace_id));
    cls_span.finish();

    app.finish();

    // Stream the timeline straight off the server into span-JSON-lines:
    // each span is serialized and written as it is drained, so the
    // serialized trace is never materialized in memory.
    let path = std::env::temp_dir().join("application_pipeline_spans.jsonl");
    let file = std::fs::File::create(&path).expect("create span stream");
    let mut writer = SpanJsonLinesWriter::new(std::io::BufWriter::new(file));
    server.drain_each(|span| writer.write_span(&span).expect("stream span"));
    writer.finish().expect("flush span stream");

    // Off-line conversion: read the exported stream back and correlate it,
    // exactly as a separate analysis process would.
    let trace = read_span_json_lines(std::io::BufReader::new(
        std::fs::File::open(&path).expect("reopen span stream"),
    ))
    .expect("span stream parses");
    println!(
        "streamed {} spans through {}\n",
        trace.len(),
        path.display()
    );
    let correlated = reconstruct_parents(&trace);
    assert!(correlated.ambiguities.is_clean());
    let tree = SpanTree::build(&correlated);
    let roots = tree.roots();
    assert_eq!(roots.len(), 1, "one application root");
    let models = tree.children(roots[0]);
    println!(
        "application: {} ({:.2} ms)",
        roots[0].name,
        roots[0].duration_ms()
    );
    for m in &models {
        let layers = tree.children(m);
        println!(
            "  {}: {:.2} ms across {} layers",
            m.name,
            m.duration_ms(),
            layers.len()
        );
    }
    println!(
        "\n{} spans total across application/model/layer levels — one timeline,\n\
         multiple models, no framework modifications.",
        tree.len()
    );
}
