//! Property tests for the framework substrate: arbitrary small graphs must
//! execute with consistent spans, allocations, and kernel counts under both
//! personalities.

use proptest::prelude::*;
use std::sync::Arc;
use xsp_dnn::ConvParams;
use xsp_framework::{FrameworkKind, Layer, LayerGraph, LayerOp, RunOptions, Session, TensorShape};
use xsp_gpu::{systems, CudaContext, CudaContextConfig};
use xsp_trace::span::tag_keys;
use xsp_trace::{TraceId, TracingServer};

#[derive(Debug, Clone)]
enum OpChoice {
    Conv(usize),
    Bn,
    Relu,
    Add,
    Pool,
    Reshape,
}

fn arb_graph() -> impl Strategy<Value = LayerGraph> {
    let op = prop_oneof![
        (8usize..64).prop_map(OpChoice::Conv),
        Just(OpChoice::Bn),
        Just(OpChoice::Relu),
        Just(OpChoice::Add),
        Just(OpChoice::Pool),
        Just(OpChoice::Reshape),
    ];
    (1usize..8, prop::collection::vec(op, 1..12)).prop_map(|(batch, ops)| {
        let mut layers = vec![Layer::new(
            "data",
            LayerOp::Data,
            TensorShape::nchw(batch, 3, 32, 32),
        )];
        let mut c = 3usize;
        let mut hw = 32usize;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                OpChoice::Conv(out_c) => {
                    let p = ConvParams {
                        batch,
                        in_c: c,
                        in_h: hw,
                        in_w: hw,
                        out_c,
                        kernel_h: 3,
                        kernel_w: 3,
                        stride: 1,
                        pad: 1,
                    };
                    c = out_c;
                    layers.push(Layer::new(
                        format!("conv{i}"),
                        LayerOp::Conv2D(p),
                        TensorShape::nchw(batch, c, hw, hw),
                    ));
                }
                OpChoice::Bn => layers.push(Layer::new(
                    format!("bn{i}"),
                    LayerOp::FusedBatchNorm,
                    TensorShape::nchw(batch, c, hw, hw),
                )),
                OpChoice::Relu => layers.push(Layer::new(
                    format!("relu{i}"),
                    LayerOp::Relu,
                    TensorShape::nchw(batch, c, hw, hw),
                )),
                OpChoice::Add => layers.push(Layer::new(
                    format!("add{i}"),
                    LayerOp::AddN(2),
                    TensorShape::nchw(batch, c, hw, hw),
                )),
                OpChoice::Pool => {
                    if hw >= 4 {
                        hw /= 2;
                    }
                    layers.push(Layer::new(
                        format!("pool{i}"),
                        LayerOp::MaxPool {
                            window: 2,
                            stride: 2,
                        },
                        TensorShape::nchw(batch, c, hw, hw),
                    ));
                }
                OpChoice::Reshape => layers.push(Layer::new(
                    format!("reshape{i}"),
                    LayerOp::Reshape,
                    TensorShape::nchw(batch, c, hw, hw),
                )),
            }
        }
        LayerGraph::new(layers)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_graph_executes_on_both_frameworks(graph in arb_graph()) {
        for fw in [FrameworkKind::TensorFlow, FrameworkKind::MXNet] {
            let ctx = Arc::new(CudaContext::new(
                CudaContextConfig::new(systems::tesla_p4()).jitter(0.0),
            ));
            let session = Session::new(fw, &graph, ctx);
            let stats = session.predict(&RunOptions::silent(TraceId(1)));
            prop_assert!(stats.end_ns > stats.start_ns);
        }
    }

    #[test]
    fn layer_spans_partition_cleanly_under_profiling(graph in arb_graph()) {
        let ctx = Arc::new(CudaContext::new(
            CudaContextConfig::new(systems::tesla_v100()).jitter(0.0),
        ));
        let session = Session::new(FrameworkKind::TensorFlow, &graph, ctx);
        let server = TracingServer::new();
        let tracer = server.tracer("fw");
        let id = server.fresh_trace_id();
        session.predict(&RunOptions::with_layer_profiling(&tracer, id));
        let trace = server.drain();
        let mut spans: Vec<_> = trace.spans().to_vec();
        prop_assert_eq!(spans.len(), session.executed_graph().len());
        spans.sort_by_key(|s| s.start_ns);
        for w in spans.windows(2) {
            prop_assert!(w[1].start_ns >= w[0].end_ns, "layer spans overlap");
        }
    }

    #[test]
    fn tf_rewrite_only_expands_batchnorm(graph in arb_graph()) {
        let bn = graph
            .layers
            .iter()
            .filter(|l| matches!(l.op, LayerOp::FusedBatchNorm))
            .count();
        let tf = FrameworkKind::TensorFlow.prepare_graph(&graph);
        prop_assert_eq!(tf.len(), graph.len() + bn);
        let mx = FrameworkKind::MXNet.prepare_graph(&graph);
        prop_assert_eq!(mx.len(), graph.len());
        // no BatchNorm layer survives the TF rewrite
        prop_assert!(!tf.layers.iter().any(|l| matches!(l.op, LayerOp::FusedBatchNorm)));
    }

    #[test]
    fn allocations_match_layer_declarations(graph in arb_graph()) {
        let ctx = Arc::new(CudaContext::new(
            CudaContextConfig::new(systems::tesla_v100()).jitter(0.0),
        ));
        let session = Session::new(FrameworkKind::MXNet, &graph, ctx);
        let server = TracingServer::new();
        let tracer = server.tracer("fw");
        session.predict(&RunOptions::with_layer_profiling(&tracer, TraceId(1)));
        let trace = server.drain();
        let executed = session.executed_graph();
        prop_assert_eq!(trace.len(), executed.len());
        for span in trace.spans() {
            let index = span.tag(tag_keys::LAYER_INDEX).and_then(|v| v.as_u64());
            let declared = executed.layers[index.expect("layer index") as usize].alloc_bytes();
            prop_assert_eq!(span.tag(tag_keys::ALLOC_BYTES).and_then(|v| v.as_u64()), Some(declared));
        }
    }
}
