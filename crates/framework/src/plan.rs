//! Execution plans: the part of a prediction that depends only on the
//! framework, the graph and the GPU.
//!
//! A profile runs one graph many times (§III-C: M, M/L, M/L/G and the
//! metric runs, each repeated). The graph rewrite, the layer → kernel
//! lowering, the library call each layer goes through and the shape
//! string its span reports are the same in every one of those runs, so
//! they are computed once into an [`ExecutionPlan`] and every
//! [`crate::Session`] replays it. Frameworks do the same: cuDNN's algorithm
//! choice is made once per layer shape and reused. What varies per run —
//! jitter, clocks, span and correlation ids — stays in the session.

use crate::graph::LayerGraph;
use crate::kernels::{layer_kernels, library_call};
use crate::personality::FrameworkKind;
use xsp_gpu::{GpuArchitecture, KernelDesc};

/// One executed layer, lowered.
#[derive(Debug)]
pub(crate) struct PlannedLayer {
    /// The kernels the layer launches, in launch order.
    pub(crate) kernels: Vec<KernelDesc>,
    /// The vendor-library API call that issues the kernels, if any.
    pub(crate) library_call: Option<&'static str>,
    /// Output shape as the layer profiler reports it (`⟨n, c, h, w⟩`).
    pub(crate) shape: String,
    /// Bytes the framework allocates on the layer's behalf.
    pub(crate) alloc_bytes: u64,
}

/// A graph prepared and lowered for one framework and GPU architecture:
/// immutable, and shared (behind an [`Arc`](std::sync::Arc)) by every run
/// that replays it.
#[derive(Debug)]
pub struct ExecutionPlan {
    framework: FrameworkKind,
    arch: GpuArchitecture,
    graph: LayerGraph,
    layers: Vec<PlannedLayer>,
}

impl ExecutionPlan {
    /// Rewrites `static_graph` the way `framework` executes it and lowers
    /// every executed layer for `arch`.
    pub fn new(framework: FrameworkKind, static_graph: &LayerGraph, arch: GpuArchitecture) -> Self {
        let graph = framework.prepare_graph(static_graph);
        let backend = framework.backend();
        let layers = graph
            .layers
            .iter()
            .map(|layer| PlannedLayer {
                kernels: layer_kernels(layer, backend, arch),
                library_call: library_call(layer, backend),
                shape: layer.out_shape.to_string(),
                alloc_bytes: layer.alloc_bytes(),
            })
            .collect();
        Self {
            framework,
            arch,
            graph,
            layers,
        }
    }

    /// The framework the plan was prepared for.
    pub(crate) fn framework(&self) -> FrameworkKind {
        self.framework
    }

    /// The GPU architecture the plan was lowered for.
    pub(crate) fn arch(&self) -> GpuArchitecture {
        self.arch
    }

    /// The executed (post-rewrite) graph.
    pub fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    /// The lowered layers, in the executed graph's order.
    pub(crate) fn layers(&self) -> &[PlannedLayer] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Layer, LayerOp, TensorShape};

    fn conv_bn_graph() -> LayerGraph {
        let shape = TensorShape::nchw(2, 8, 16, 16);
        LayerGraph::new(vec![
            Layer::new("data", LayerOp::Data, TensorShape::nchw(2, 3, 16, 16)),
            Layer::new("bn", LayerOp::FusedBatchNorm, shape.clone()),
            Layer::new("relu", LayerOp::Relu, shape),
        ])
    }

    #[test]
    fn plan_lowers_the_executed_graph() {
        let graph = conv_bn_graph();
        let plan = ExecutionPlan::new(FrameworkKind::TensorFlow, &graph, GpuArchitecture::Volta);
        let executed = FrameworkKind::TensorFlow.prepare_graph(&graph);
        assert_eq!(plan.graph(), &executed);
        assert_eq!(plan.layers().len(), executed.len());
        for (layer, planned) in executed.layers.iter().zip(plan.layers()) {
            assert_eq!(
                planned.kernels,
                layer_kernels(
                    layer,
                    FrameworkKind::TensorFlow.backend(),
                    GpuArchitecture::Volta
                )
            );
            assert_eq!(planned.shape, layer.out_shape.to_string());
            assert_eq!(planned.alloc_bytes, layer.alloc_bytes());
        }
        assert_eq!(plan.arch(), GpuArchitecture::Volta);
        assert_eq!(plan.framework(), FrameworkKind::TensorFlow);
    }

    #[test]
    fn mxnet_plan_keeps_batch_norm_fused() {
        let plan = ExecutionPlan::new(
            FrameworkKind::MXNet,
            &conv_bn_graph(),
            GpuArchitecture::Pascal,
        );
        assert_eq!(plan.layers().len(), 3);
        assert_eq!(
            plan.layers()[1].library_call,
            Some("cudnnBatchNormalizationForwardInference")
        );
        assert!(plan.layers()[0].kernels.is_empty(), "Data is CPU-only");
    }
}
