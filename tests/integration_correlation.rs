//! Correlation integration: the kernel↔layer mapping that defines XSP.

use xsp_core::pipeline::{run_once, run_once_with_metrics};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::StackLevel;

fn cfg() -> XspConfig {
    XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
}

#[test]
fn every_kernel_maps_to_exactly_one_layer() {
    let graph = zoo::by_name("Inception_v1").unwrap().graph(8);
    let p = run_once(&cfg(), &graph, ProfilingLevel::ModelLayerGpu, 0);
    assert!(!p.kernels().is_empty());
    for k in p.kernels() {
        assert!(
            k.layer_index.is_some(),
            "kernel {} (order {}) unmapped",
            k.name,
            k.order
        );
    }
}

#[test]
fn kernel_layer_assignment_matches_launch_structure() {
    // Ground truth: the executed graph's layer kinds determine what kernels
    // each layer launches; check the correlation recovered exactly that.
    let graph = zoo::by_name("MobileNet_v1_0.5_128").unwrap().graph(4);
    let p = run_once(&cfg(), &graph, ProfilingLevel::ModelLayerGpu, 0);
    for k in p.kernels() {
        let layer = &p.layers()[k.layer_index.unwrap()];
        match layer.type_name.as_str() {
            "Conv2D" => assert!(
                k.name.contains("scudnn")
                    || k.name.contains("convolve")
                    || k.name.contains("cgemm")
                    || k.name.contains("fft")
                    || k.name.contains("Shuffle")
                    || k.name.contains("Offset"),
                "conv layer launched {}",
                k.name
            ),
            "DepthwiseConv2dNative" => {
                assert!(k.name.contains("depthwise"), "dw layer launched {}", k.name)
            }
            "Mul" | "Add" | "AddN" | "Relu" | "Relu6" | "BiasAdd" => assert!(
                k.name.contains("Eigen") || k.name.contains("mshadow") || k.name.contains("Sum"),
                "elementwise layer {} launched {}",
                layer.type_name,
                k.name
            ),
            "MatMul" => assert!(k.name.contains("sgemm"), "fc launched {}", k.name),
            _ => {}
        }
    }
}

#[test]
fn without_layer_level_kernels_bind_to_model_span() {
    // M/G profile (no layer profiler): interval reconstruction walks up to
    // the model span.
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(2);
    let p = run_once_with_metrics(&cfg(), &graph, ProfilingLevel::ModelLayerGpu, 0, true);
    // layer info still exists in M/L/G; emulate M/G by checking the trace:
    // every kernel's resolved parent is a layer (level check)
    for (i, s) in p.trace.spans().iter().enumerate() {
        if s.level == StackLevel::Kernel && s.is_async_execution() {
            let parent = p.trace.parent_index(i).expect("parent exists");
            let pspan = &p.trace.spans()[parent];
            assert!(
                pspan.level == StackLevel::Layer || pspan.level == StackLevel::Model,
                "kernel parent at {:?}",
                pspan.level
            );
        }
    }
}

#[test]
fn mxnet_correlation_works_identically() {
    let graph = zoo::by_name("ResNet_v1_50").unwrap().graph(4);
    let mut c = cfg();
    c.framework = FrameworkKind::MXNet;
    let p = run_once(&c, &graph, ProfilingLevel::ModelLayerGpu, 0);
    assert!(p.kernels().iter().all(|k| k.layer_index.is_some()));
    // MXNet executes fused BatchNorm: bn kernels map to BatchNorm layers
    let bn_layers: Vec<usize> = p
        .layers()
        .iter()
        .filter(|l| l.type_name == "BatchNorm")
        .map(|l| l.index)
        .collect();
    assert!(!bn_layers.is_empty());
    let bn_kernels = p
        .kernels()
        .iter()
        .filter(|k| bn_layers.contains(&k.layer_index.unwrap()))
        .count();
    assert_eq!(bn_kernels, bn_layers.len(), "one fused kernel per BN layer");
}

#[test]
fn correlation_consistent_across_all_levels_of_zoo_sample() {
    // A representative model per task family.
    for name in [
        "Inception_v3",
        "SSD_MobileNet_v2",
        "DeepLabv3_MobileNet_v2",
        "SRGAN",
    ] {
        let graph = zoo::by_name(name).unwrap().graph(1);
        let p = run_once(&cfg(), &graph, ProfilingLevel::ModelLayerGpu, 0);
        let unmapped = p
            .kernels()
            .iter()
            .filter(|k| k.layer_index.is_none())
            .count();
        assert_eq!(unmapped, 0, "{name}: {unmapped} unmapped kernels");
        // layer kernel windows sum to less than the model prediction time
        let kernel_ms: f64 = p.kernels().iter().map(|k| k.latency_ms).sum();
        assert!(
            kernel_ms < p.phases().predict_ms,
            "{name}: kernels {kernel_ms} vs predict {}",
            p.phases().predict_ms
        );
    }
}

#[test]
fn xsp_object_smoke() {
    let xsp = Xsp::new(cfg());
    let p = xsp.run(ProfileRequest::new(
        &zoo::by_name("BVLC_AlexNet_Caffe").unwrap().graph(2),
    ));
    assert!(p.model_latency_ms() > 0.0);
}
