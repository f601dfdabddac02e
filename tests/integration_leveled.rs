//! Leveled experimentation integration (§III-C): the accuracy/overhead
//! contract that justifies the methodology.

use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;

fn leveled(batch: usize) -> xsp_core::LeveledProfile {
    let xsp = Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(3));
    xsp.run(ProfileRequest::new(
        &zoo::by_name("MLPerf_ResNet50_v1.5").unwrap().graph(batch),
    ))
}

#[test]
fn overheads_accumulate_monotonically() {
    let p = leveled(16);
    let o = p.overhead_report();
    assert!(o.model_ms > 0.0);
    assert!(o.model_layer_ms > o.model_ms, "{o:?}");
    assert!(o.model_layer_gpu_ms > o.model_layer_ms, "{o:?}");
    // metric replay dwarfs everything (§III-C: "over 100x" for memory
    // metrics)
    let metric = p.metric_run_predict_ms();
    assert!(
        metric > o.model_ms * 20.0,
        "metric run {metric} vs base {}",
        o.model_ms
    );
}

#[test]
fn layer_latencies_accurate_at_both_levels() {
    // §III-C: events at level n are accurately captured whenever profilers
    // up to level >= n are on. Layer latencies measured at M/L must match
    // those at M/L/G except for the per-kernel tracing overhead inside
    // multi-kernel layers.
    let p = leveled(16);
    let ml = p.layers();
    let mlg = p.layers_at_gpu_level();
    assert_eq!(ml.len(), mlg.len());
    for (a, b) in ml.iter().zip(mlg.iter()) {
        assert_eq!(a.index, b.index);
        // M/L/G inflates a layer by ~0.15ms per launched kernel; allow that
        // plus jitter
        let max_inflation = 0.16 * 8.0 + a.latency_ms * 0.10 + 0.05;
        assert!(
            b.latency_ms >= a.latency_ms * 0.90 - 0.02,
            "layer {}: M/L/G {} unexpectedly below M/L {}",
            a.index,
            b.latency_ms,
            a.latency_ms
        );
        assert!(
            b.latency_ms - a.latency_ms < max_inflation,
            "layer {}: G-level overhead too large: {} -> {}",
            a.index,
            a.latency_ms,
            b.latency_ms
        );
    }
}

#[test]
fn layer_overhead_scales_with_layer_count() {
    // The layer profiler costs per executed layer, so a deeper model pays
    // proportionally more (Figure 2's 157ms for 234 layers).
    let xsp = Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1));
    let shallow = xsp.run(ProfileRequest::new(
        &zoo::by_name("BVLC_AlexNet_Caffe").unwrap().graph(8),
    ));
    let deep = xsp.run(ProfileRequest::new(
        &zoo::by_name("ResNet_v1_152").unwrap().graph(8),
    ));
    let so = shallow.overhead_report().layer_overhead_ms;
    let do_ = deep.overhead_report().layer_overhead_ms;
    let shallow_layers = shallow.layers().len() as f64;
    let deep_layers = deep.layers().len() as f64;
    assert!(do_ > so * 2.0, "deep {do_} vs shallow {so}");
    let per_layer_shallow = so / shallow_layers;
    let per_layer_deep = do_ / deep_layers;
    assert!(
        (per_layer_deep / per_layer_shallow - 1.0).abs() < 0.35,
        "per-layer overhead roughly constant: {per_layer_shallow:.4} vs {per_layer_deep:.4}"
    );
}

#[test]
fn gpu_overhead_scales_with_kernel_count() {
    let p = leveled(16);
    let o = p.overhead_report();
    let kernels = p.kernels().len() as f64;
    let per_kernel_ms = o.gpu_overhead_ms / kernels;
    // default CUPTI launch overhead is 0.145ms/kernel (+ serialization noise)
    assert!(
        (0.05..0.60).contains(&per_kernel_ms),
        "per-kernel G overhead {per_kernel_ms} ms over {kernels} kernels"
    );
}

#[test]
fn kernel_latencies_identical_with_and_without_metrics() {
    // Replay must not distort reported kernel durations.
    let p = leveled(8);
    let plain: Vec<f64> = p.mlg_runs[0]
        .kernels()
        .iter()
        .map(|k| k.latency_ms)
        .collect();
    let metric: Vec<f64> = p.metric_runs[0]
        .kernels()
        .iter()
        .map(|k| k.latency_ms)
        .collect();
    assert_eq!(plain.len(), metric.len());
    for (i, (a, b)) in plain.iter().zip(metric.iter()).enumerate() {
        assert!(
            (a - b).abs() / a.max(1e-9) < 0.10,
            "kernel {i}: {a} vs {b} (jitter only)"
        );
    }
}

#[test]
fn levels_expose_expected_data() {
    let xsp = Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1));
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(2);
    use xsp_core::pipeline::run_once;
    let m = run_once(xsp.config(), &graph, ProfilingLevel::Model, 0);
    assert!(m.layers().is_empty() && m.kernels().is_empty());
    let ml = run_once(xsp.config(), &graph, ProfilingLevel::ModelLayer, 0);
    assert!(!ml.layers().is_empty() && ml.kernels().is_empty());
    let mlg = run_once(xsp.config(), &graph, ProfilingLevel::ModelLayerGpu, 0);
    assert!(!mlg.layers().is_empty() && !mlg.kernels().is_empty());
}
