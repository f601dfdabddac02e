//! End-to-end pipeline integration: a full leveled profile of a real zoo
//! model must produce a consistent across-stack view.

use std::sync::Arc;
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_cupti::{Cupti, MetricKind};
use xsp_framework::{FrameworkKind, RunOptions, Session};
use xsp_gpu::{systems, CudaContext, CudaContextConfig};
use xsp_models::{zoo, GraphBuilder};
use xsp_trace::{SpanTree, StackLevel, TraceId, TracingServer};

fn profile() -> (xsp_core::LeveledProfile, xsp_gpu::System) {
    let system = systems::tesla_v100();
    let xsp = Xsp::new(XspConfig::new(system.clone(), FrameworkKind::TensorFlow).runs(2));
    let graph = zoo::by_name("MLPerf_ResNet50_v1.5").unwrap().graph(32);
    (xsp.run(ProfileRequest::new(&graph)), system)
}

#[test]
fn resnet50_full_stack_profile() {
    let (p, _) = profile();
    // ~229 executed layers after the BN rewrite
    let layers = p.layers();
    assert!(
        (200..260).contains(&layers.len()),
        "executed layer count {}",
        layers.len()
    );
    // hundreds of kernels
    let kernels = p.kernels();
    assert!(
        (150..600).contains(&kernels.len()),
        "kernel count {}",
        kernels.len()
    );
    // all kernels mapped to layers
    assert!(kernels.iter().all(|k| k.layer_index.is_some()));
    // model latency positive and larger than any layer
    let model_ms = p.model_latency_ms();
    assert!(model_ms > 0.0);
    assert!(layers.iter().all(|l| l.latency_ms < model_ms));
    // GPU latency below model latency, above half of it at batch 32
    let pct = p.gpu_latency_percent();
    assert!(pct > 50.0 && pct < 100.0, "GPU latency {pct}%");
}

#[test]
fn span_hierarchy_nests_cleanly() {
    let (p, _) = profile();
    let run = &p.mlg_runs[0];
    assert!(run.trace.ambiguities.is_clean() || run.used_serialized_rerun);
    let tree = SpanTree::build(&run.trace);
    // roots: the three model-level phases
    let roots = tree.roots();
    let model_roots: Vec<_> = roots
        .iter()
        .filter(|s| s.level == StackLevel::Model)
        .collect();
    assert_eq!(model_roots.len(), 3, "preprocess + predict + postprocess");
    // every kernel span nests inside its parent's interval
    let predict = roots
        .iter()
        .find(|s| s.name == "model_prediction")
        .expect("predict span");
    for layer in tree.children(predict) {
        assert!(
            layer.start_ns >= predict.start_ns && layer.end_ns <= predict.end_ns,
            "layer {} outside predict span",
            layer.name
        );
        for kernel in tree.children(layer) {
            assert!(
                kernel.start_ns >= layer.start_ns && kernel.end_ns <= layer.end_ns,
                "kernel {} outside layer {}",
                kernel.name,
                layer.name
            );
        }
    }
}

#[test]
fn conv_layers_launch_cudnn_kernels() {
    let (p, _) = profile();
    let layers = p.layers_at_gpu_level();
    let kernels = p.kernels();
    for layer in layers.iter().filter(|l| l.type_name == "Conv2D") {
        let mine: Vec<_> = kernels
            .iter()
            .filter(|k| k.layer_index == Some(layer.index))
            .collect();
        assert!(!mine.is_empty(), "conv layer {} has no kernels", layer.name);
        assert!(
            mine.iter().any(|k| k.name.contains("scudnn")
                || k.name.contains("convolve")
                || k.name.contains("cgemm")),
            "conv layer {} kernels: {:?}",
            layer.name,
            mine.iter().map(|k| &k.name).collect::<Vec<_>>()
        );
    }
}

#[test]
fn profile_is_deterministic() {
    let system = systems::tesla_v100();
    let graph = zoo::by_name("MobileNet_v1_0.5_128").unwrap().graph(4);
    let run = || {
        let xsp = Xsp::new(XspConfig::new(system.clone(), FrameworkKind::TensorFlow).runs(1));
        let p = xsp.run(ProfileRequest::new(&graph));
        (
            p.model_latency_ms(),
            p.kernel_latency_ms(),
            p.layers().len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_vary_but_agree_statistically() {
    let system = systems::tesla_v100();
    let graph = zoo::by_name("MobileNet_v1_0.5_128").unwrap().graph(4);
    let at_seed = |seed: u64| {
        let xsp = Xsp::new(
            XspConfig::new(system.clone(), FrameworkKind::TensorFlow)
                .runs(1)
                .seed(seed),
        );
        xsp.run(ProfileRequest::new(&graph).level(ProfilingLevel::Model))
            .model_latency_ms()
    };
    let a = at_seed(1);
    let b = at_seed(2);
    assert_ne!(a, b, "jitter must differ across seeds");
    assert!(
        (a - b).abs() / a < 0.05,
        "seeds agree within jitter bounds: {a} vs {b}"
    );
}

#[test]
fn offline_analysis_roundtrip() {
    // §III-A: conversion/correlation can run offline from exported spans.
    use xsp_core::pipeline::{profile_from_trace, run_once};
    use xsp_core::profile::ProfilingLevel;
    let system = systems::tesla_v100();
    let xsp_cfg = XspConfig::new(system, FrameworkKind::TensorFlow);
    let graph = zoo::by_name("MobileNet_v1_0.5_128").unwrap().graph(4);
    let live = run_once(&xsp_cfg, &graph, ProfilingLevel::ModelLayerGpu, 0);

    // export the raw (uncorrelated parents preserved) spans and reload
    let spans: Vec<xsp_trace::Span> = live.trace.iter_spans().cloned().collect();
    let json = xsp_trace::export::to_span_json(&xsp_trace::Trace::from_spans(spans));
    let reloaded = xsp_trace::export::from_span_json(&json).unwrap();
    let offline = profile_from_trace(reloaded, ProfilingLevel::ModelLayerGpu);

    assert_eq!(offline.layers().len(), live.layers().len());
    assert_eq!(offline.kernels().len(), live.kernels().len());
    assert_eq!(offline.phases().predict_ms, live.phases().predict_ms);
    for (a, b) in live.kernels().iter().zip(offline.kernels().iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.layer_index, b.layer_index, "kernel {} layer", a.name);
        assert_eq!(a.latency_ms, b.latency_ms);
    }
}

#[test]
fn folded_stack_export_covers_model_time() {
    use xsp_core::pipeline::run_once;
    use xsp_core::profile::ProfilingLevel;
    let system = systems::tesla_v100();
    let cfg = XspConfig::new(system, FrameworkKind::TensorFlow);
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(2);
    let run = run_once(&cfg, &graph, ProfilingLevel::ModelLayerGpu, 0);
    let folded = xsp_trace::export::to_folded_stacks(&run.trace);
    // total folded weight ≈ total root span time (µs)
    let total_us: u64 = folded
        .lines()
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|w| w.parse::<u64>().ok())
        .sum();
    let root_us: u64 = run
        .trace
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() / 1_000)
        .sum();
    let ratio = total_us as f64 / root_us as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "folded weight {total_us} vs roots {root_us}"
    );
    // stacks reach kernel depth
    assert!(
        folded.lines().any(|l| l.matches(';').count() >= 2),
        "3-deep stacks"
    );
}

/// Producers that know their tag count build each span's tag list at its
/// final size: a layer span holds 5 tags, a kernel execution span 6 plus
/// one per metric. (A span of at most 4 tags, such as a memcpy, fits the
/// list's first allocation anyway.) Checked on the raw spans of one M/L/G
/// run with all four metrics, before correlation touches them.
#[test]
fn raw_spans_carry_tag_lists_at_their_final_size() {
    let system = systems::tesla_v100();
    let ctx = Arc::new(CudaContext::new(CudaContextConfig::new(system.clone())));
    let cupti = Arc::new(Cupti::new(MetricKind::ALL.to_vec(), system.gpu.clone()));
    ctx.register_hook(cupti.clone());
    let mut builder = GraphBuilder::new(1, 3, 32, 32);
    builder.conv_bn_relu(16, 3, 1, 1).maxpool(2, 2);
    builder.fc(10).softmax();
    let session = Session::new(FrameworkKind::TensorFlow, &builder.finish(), ctx);

    let server = TracingServer::new();
    let layer_tracer = server.tracer("framework_profiler");
    let kernel_tracer = server.tracer("cupti");
    session.predict(&RunOptions::with_layer_profiling(&layer_tracer, TraceId(1)));
    cupti.flush_to_tracer(&kernel_tracer, TraceId(1));
    let trace = server.drain();

    let wide: Vec<_> = trace.spans().iter().filter(|s| s.tags.len() > 4).collect();
    assert!(wide.iter().any(|s| s.level == StackLevel::Layer));
    assert!(
        wide.iter().any(|s| s.tags.len() == 10),
        "kernel spans with 4 metrics"
    );
    for s in wide {
        assert_eq!(
            s.tags.capacity(),
            s.tags.len(),
            "span '{}' has spare tag slots",
            s.name
        );
    }
}
