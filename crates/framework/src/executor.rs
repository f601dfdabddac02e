//! The graph executor / session: runs a prepared layer graph on the
//! simulated GPU, optionally publishing layer-level spans.
//!
//! Execution model:
//!
//! * **Pipelined (profiling off)** — the host dispatches ops and launches
//!   kernels asynchronously; the GPU runs behind. Model latency is the later
//!   of the host and device frontiers, so dispatch cost hides behind kernels
//!   at large batch and dominates at small batch — both regimes the paper's
//!   Table IX relies on.
//! * **Serialized (layer profiling on)** — the framework synchronizes after
//!   each op to timestamp it (what `RunOptions.TraceLevel` does in
//!   TensorFlow) and pays the profiler's per-layer collection cost *outside*
//!   the reported layer span. Layer latencies stay accurate; the model span
//!   absorbs the overhead — the exact structure of the paper's Figure 2.
//!
//! A session replays an [`ExecutionPlan`]: the graph rewrite and the
//! lowering are done once per plan, not once per prediction.

use crate::graph::LayerGraph;
use crate::personality::FrameworkKind;
use crate::plan::ExecutionPlan;
use parking_lot::Mutex;
use std::sync::Arc;
use xsp_gpu::jitter::Jitter;
use xsp_gpu::{CudaContext, MemcpyKind, StreamId};
use xsp_trace::span::tag_keys;
use xsp_trace::{SpanBuilder, StackLevel, TraceId, Tracer};

/// Per-prediction options (the `TF_SessionRun`/`MXPredForward` knobs).
pub struct RunOptions<'a> {
    /// The framework's layer profiler
    /// (`RunOptions.TraceLevel=FULL_TRACE` / `MXSetProfilerState(1)`): when
    /// set, the prediction runs serialized and publishes one span per
    /// layer through this tracer.
    pub layer_tracer: Option<&'a dyn Tracer>,
    /// Optional library-level tracer (§III-E extension): emits
    /// `cudnn*`/`cublas*` API-call spans between the layer and kernel
    /// levels. Requires a layer tracer (the serialized regime) so the API
    /// span can cover its kernels' execution window.
    pub library_tracer: Option<&'a dyn Tracer>,
    /// Optional host/CPU tracer (§III-E extension): emits a hardware-level
    /// span per op covering the host-side dispatch work, so CPU and GPU
    /// activity share one timeline.
    pub host_tracer: Option<&'a dyn Tracer>,
    /// Trace id of the current evaluation run.
    pub trace_id: TraceId,
}

impl<'a> RunOptions<'a> {
    /// Options with layer profiling disabled.
    pub fn silent(trace_id: TraceId) -> Self {
        Self {
            layer_tracer: None,
            library_tracer: None,
            host_tracer: None,
            trace_id,
        }
    }

    /// Options with layer profiling enabled, publishing through `tracer`.
    pub fn with_layer_profiling(tracer: &'a dyn Tracer, trace_id: TraceId) -> Self {
        Self {
            layer_tracer: Some(tracer),
            ..Self::silent(trace_id)
        }
    }

    /// Builder: additionally capture library-level API spans.
    pub fn with_library_tracing(mut self, tracer: &'a dyn Tracer) -> Self {
        self.library_tracer = Some(tracer);
        self
    }

    /// Builder: additionally capture host-side dispatch spans.
    pub fn with_host_tracing(mut self, tracer: &'a dyn Tracer) -> Self {
        self.host_tracer = Some(tracer);
        self
    }
}

/// Result of one prediction. What each layer did is on its span.
#[derive(Debug, Clone)]
pub struct PredictStats {
    /// Prediction start (host), ns.
    pub start_ns: u64,
    /// Prediction end (host, after device sync), ns.
    pub end_ns: u64,
    /// Total kernels launched.
    pub kernels_launched: u64,
}

impl PredictStats {
    /// Model prediction latency, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A loaded model bound to a device context — the `TF_Session` /
/// `MXPredictor` analogue.
pub struct Session {
    plan: Arc<ExecutionPlan>,
    ctx: Arc<CudaContext>,
    jitter: Mutex<Jitter>,
}

impl Session {
    /// Loads `static_graph` into the framework: builds an
    /// [`ExecutionPlan`] for the context's GPU (the personality's graph
    /// rewrite and the lowering, like a real session's graph optimization)
    /// and binds it with [`Session::with_plan`]. Callers that run one
    /// graph many times build the plan once and share it instead.
    pub fn new(framework: FrameworkKind, static_graph: &LayerGraph, ctx: Arc<CudaContext>) -> Self {
        let plan = ExecutionPlan::new(framework, static_graph, ctx.system().gpu.arch);
        Self::with_plan(Arc::new(plan), ctx)
    }

    /// Binds a shared plan to a device context. The plan must have been
    /// lowered for the context's GPU architecture.
    pub fn with_plan(plan: Arc<ExecutionPlan>, ctx: Arc<CudaContext>) -> Self {
        debug_assert_eq!(
            plan.arch(),
            ctx.system().gpu.arch,
            "plan lowered for another GPU architecture"
        );
        let seed = ctx.config().seed ^ 0x5EED_CAFE;
        let amplitude = ctx.config().jitter_amplitude;
        Self {
            plan,
            ctx,
            jitter: Mutex::new(Jitter::new(seed, amplitude)),
        }
    }

    /// The framework executing this session.
    pub fn framework(&self) -> FrameworkKind {
        self.plan.framework()
    }

    /// The *executed* (post-rewrite) layer graph.
    pub fn executed_graph(&self) -> &LayerGraph {
        self.plan.graph()
    }

    /// The device context.
    pub fn context(&self) -> &Arc<CudaContext> {
        &self.ctx
    }

    fn scaled(&self, ns: u64) -> u64 {
        let scaled = (ns as f64 * self.ctx.system().cpu.dispatch_scale()) as u64;
        self.jitter.lock().perturb(scaled)
    }

    /// Runs one prediction (`TF_SessionRun` / `MXPredForward`).
    pub fn predict(&self, opts: &RunOptions<'_>) -> PredictStats {
        let ctx = &self.ctx;
        let clock = ctx.clock();
        let stream = StreamId::DEFAULT;
        let kernels_before = ctx.kernels_launched();
        let start_ns = clock.now();
        let framework = self.plan.framework();
        let graph = self.plan.graph();

        // Engine / session fixed overhead (serial with everything else).
        clock.advance(self.scaled(framework.fixed_overhead_ns()));

        // Feed: host-to-device copy of the input batch.
        let input_bytes = graph
            .layers
            .first()
            .map(|l| l.out_shape.bytes())
            .unwrap_or(0);
        if input_bytes > 0 {
            ctx.memcpy(MemcpyKind::HostToDevice, input_bytes, stream);
        }

        let batch = graph.batch();

        for (index, (layer, planned)) in graph.layers.iter().zip(self.plan.layers()).enumerate() {
            let t0 = clock.now();
            clock.advance(self.scaled(framework.dispatch_ns(&layer.op, batch)));
            if let Some(host) = opts.host_tracer {
                host.report(
                    SpanBuilder::new(
                        format!("host:dispatch:{}", layer.op.type_name()),
                        StackLevel::Kernel,
                        opts.trace_id,
                    )
                    .start(t0)
                    .tag(tag_keys::TRACER, "host_profiler")
                    .tag(tag_keys::LAYER_INDEX, index as u64)
                    .finish(clock.now()),
                );
            }

            let alloc_bytes = planned.alloc_bytes;
            if alloc_bytes > 0 {
                ctx.malloc(alloc_bytes);
            }

            let has_kernels = !planned.kernels.is_empty();
            // Library-level span (§III-E): the vendor API call that issues
            // this layer's kernels. Opens before the first launch; in the
            // serialized regime it closes after the kernels complete, so
            // kernel spans nest inside it on the timeline.
            let lib = opts
                .library_tracer
                .filter(|_| opts.layer_tracer.is_some() && has_kernels)
                .and_then(|tracer| planned.library_call.map(|api| (tracer, api, clock.now())));
            for k in &planned.kernels {
                ctx.launch_kernel(k.clone(), stream);
            }

            if let Some(tracer) = opts.layer_tracer {
                // The profiler timestamps op completion: serialize.
                if has_kernels {
                    ctx.stream_synchronize(stream);
                }
                if let Some((lib_tracer, api, lib_t0)) = lib {
                    lib_tracer.report(
                        SpanBuilder::new(api, StackLevel::Library, opts.trace_id)
                            .start(lib_t0)
                            .tag(tag_keys::TRACER, "library_interposer")
                            .tag(tag_keys::LAYER_INDEX, index as u64)
                            .finish(clock.now()),
                    );
                }
                tracer.report(
                    SpanBuilder::new(layer.name.as_str(), StackLevel::Layer, opts.trace_id)
                        .tag_capacity(5)
                        .start(t0)
                        .tag(tag_keys::TRACER, framework.profiler_api())
                        .tag(tag_keys::LAYER_INDEX, index as u64)
                        .tag(tag_keys::LAYER_TYPE, layer.op.type_name())
                        .tag(tag_keys::LAYER_SHAPE, planned.shape.clone())
                        .tag(tag_keys::ALLOC_BYTES, alloc_bytes)
                        .finish(clock.now()),
                );
                // Collection cost lands *outside* the layer span: the span
                // stays accurate, the model span absorbs the overhead.
                clock.advance(self.scaled(framework.layer_profiler_overhead_ns()));
            }
        }

        // Fetch: device-to-host copy of the output.
        let output_bytes = graph
            .layers
            .last()
            .map(|l| l.out_shape.bytes())
            .unwrap_or(0);
        if output_bytes > 0 {
            ctx.memcpy(MemcpyKind::DeviceToHost, output_bytes, stream);
        }
        ctx.synchronize();

        PredictStats {
            start_ns,
            end_ns: clock.now(),
            kernels_launched: ctx.kernels_launched() - kernels_before,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Layer, LayerGraph, LayerOp, TensorShape};
    use xsp_dnn::ConvParams;
    use xsp_gpu::{systems, CudaContextConfig};
    use xsp_trace::TracingServer;

    fn tiny_graph(batch: usize) -> LayerGraph {
        let p = ConvParams {
            batch,
            in_c: 3,
            in_h: 32,
            in_w: 32,
            out_c: 16,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad: 1,
        };
        LayerGraph::new(vec![
            Layer::new("data", LayerOp::Data, TensorShape::nchw(batch, 3, 32, 32)),
            Layer::new(
                "conv1/Conv2D",
                LayerOp::Conv2D(p),
                TensorShape::nchw(batch, 16, 32, 32),
            ),
            Layer::new(
                "bn1",
                LayerOp::FusedBatchNorm,
                TensorShape::nchw(batch, 16, 32, 32),
            ),
            Layer::new("relu1", LayerOp::Relu, TensorShape::nchw(batch, 16, 32, 32)),
            Layer::new(
                "fc/MatMul",
                LayerOp::MatMul {
                    in_features: 16 * 32 * 32,
                    out_features: 10,
                },
                TensorShape::nf(batch, 10),
            ),
        ])
    }

    fn session(framework: FrameworkKind, batch: usize) -> Session {
        let ctx = Arc::new(CudaContext::new(
            CudaContextConfig::new(systems::tesla_v100()).jitter(0.0),
        ));
        Session::new(framework, &tiny_graph(batch), ctx)
    }

    #[test]
    fn tf_executes_rewritten_graph() {
        let s = session(FrameworkKind::TensorFlow, 4);
        // data, conv, mul, add, relu, fc
        assert_eq!(s.executed_graph().len(), 6);
        assert_eq!(s.executed_graph().layers[2].op.type_name(), "Mul");
        let stats = s.predict(&RunOptions::silent(TraceId(1)));
        assert!(stats.latency_ms() > 0.0);
    }

    #[test]
    fn mxnet_executes_fused_graph() {
        let s = session(FrameworkKind::MXNet, 4);
        assert_eq!(s.executed_graph().len(), 5);
        assert_eq!(s.executed_graph().layers[2].op.type_name(), "BatchNorm");
        let stats = s.predict(&RunOptions::silent(TraceId(1)));
        assert!(stats.latency_ms() > 0.0);
    }

    #[test]
    fn layer_profiling_publishes_non_overlapping_spans() {
        let s = session(FrameworkKind::TensorFlow, 4);
        let server = TracingServer::new();
        let tracer = server.tracer("framework");
        let id = server.fresh_trace_id();
        s.predict(&RunOptions::with_layer_profiling(&tracer, id));
        let trace = server.drain();
        let mut spans: Vec<_> = trace.spans().to_vec();
        assert_eq!(spans.len(), 6, "one span per executed layer");
        spans.sort_by_key(|s| s.start_ns);
        for w in spans.windows(2) {
            assert!(
                w[1].start_ns >= w[0].end_ns,
                "layer spans must not overlap: {} and {}",
                w[0].name,
                w[1].name
            );
        }
        // tags present
        let conv = spans.iter().find(|s| s.name == "conv1/Conv2D").unwrap();
        assert_eq!(
            conv.tag(tag_keys::LAYER_TYPE).unwrap().as_str(),
            Some("Conv2D")
        );
        assert!(conv.tag(tag_keys::ALLOC_BYTES).unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn profiling_adds_overhead_to_model_latency() {
        let silent = session(FrameworkKind::TensorFlow, 4);
        let silent_stats = silent.predict(&RunOptions::silent(TraceId(1)));

        let profiled = session(FrameworkKind::TensorFlow, 4);
        let server = TracingServer::new();
        let tracer = server.tracer("framework");
        let profiled_stats =
            profiled.predict(&RunOptions::with_layer_profiling(&tracer, TraceId(2)));

        assert!(
            profiled_stats.latency_ms() > silent_stats.latency_ms() * 1.5,
            "layer profiling must cost: {} vs {}",
            profiled_stats.latency_ms(),
            silent_stats.latency_ms()
        );
    }

    #[test]
    fn kernels_are_counted() {
        let s = session(FrameworkKind::TensorFlow, 4);
        let stats = s.predict(&RunOptions::silent(TraceId(1)));
        // conv=1 (no shuffle at in_c=3? in_c<=4 & precomp only at batch>=16:
        // batch 4 -> implicit gemm, 1 kernel), mul, add, relu, fc
        assert_eq!(stats.kernels_launched, 5);
        assert_eq!(s.plan.layers()[1].kernels.len(), 1);
        assert!(s.plan.layers()[0].kernels.is_empty(), "Data is CPU-only");
    }

    #[test]
    fn larger_batch_takes_longer() {
        let s1 = session(FrameworkKind::TensorFlow, 1);
        let t1 = s1.predict(&RunOptions::silent(TraceId(1))).latency_ms();
        let s64 = session(FrameworkKind::TensorFlow, 64);
        let t64 = s64.predict(&RunOptions::silent(TraceId(1))).latency_ms();
        assert!(t64 > t1, "batch 64 {t64} vs batch 1 {t1}");
    }

    #[test]
    fn mxnet_online_latency_exceeds_tf() {
        // §IV-B: fixed engine overhead hurts MXNet at batch 1.
        let tf = session(FrameworkKind::TensorFlow, 1)
            .predict(&RunOptions::silent(TraceId(1)))
            .latency_ms();
        let mx = session(FrameworkKind::MXNet, 1)
            .predict(&RunOptions::silent(TraceId(1)))
            .latency_ms();
        assert!(mx > tf, "MXNet {mx} vs TF {tf}");
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let ctx = Arc::new(CudaContext::new(
                CudaContextConfig::new(systems::tesla_v100()).seed(seed),
            ));
            let s = Session::new(FrameworkKind::TensorFlow, &tiny_graph(8), ctx);
            s.predict(&RunOptions::silent(TraceId(1))).end_ns
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
