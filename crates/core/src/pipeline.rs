//! One evaluation run: system wiring, inference pipeline, trace
//! correlation, and profile extraction.
//!
//! The model-level pipeline follows Figure 1: input pre-processing → model
//! prediction → output post-processing, each wrapped in a model-level span
//! via the [`crate::api`]. Layer spans come from the framework profiler,
//! kernel spans from the CUPTI adapter; nothing sets the kernel→layer
//! relation explicitly — the [`xsp_trace::CorrelationEngine`] recovers it
//! from lazily built per-level interval trees, with an optional serialized
//! re-run (`CUDA_LAUNCH_BLOCKING=1` analogue) when parents are ambiguous
//! (§III-A).

use crate::profile::{ProfilingLevel, XspConfig};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use xsp_cupti::Cupti;
use xsp_framework::{ExecutionPlan, LayerGraph, RunOptions, Session};
use xsp_gpu::{CudaContext, CudaContextConfig};
use xsp_trace::span::tag_keys;
use xsp_trace::{CorrelatedTrace, CorrelationEngine, SpanId, StackLevel, TraceId, TracingServer};

/// Host-side cost of decoding/normalizing one input image, ns.
const PREPROCESS_PER_IMAGE_NS: u64 = 180_000;
/// Host-side cost of post-processing one output, ns.
const POSTPROCESS_PER_IMAGE_NS: u64 = 25_000;

/// Model-level pipeline phase latencies, ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPhases {
    /// Input pre-processing latency.
    pub preprocess_ms: f64,
    /// Model prediction latency (the paper's "model latency").
    pub predict_ms: f64,
    /// Output post-processing latency.
    pub postprocess_ms: f64,
}

/// A layer observation extracted from a layer-level span.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// Execution index within the run.
    pub index: usize,
    /// Layer name.
    pub name: String,
    /// Layer type ("Conv2D", "Mul", ...).
    pub type_name: String,
    /// Output shape rendered as the framework reports it.
    pub shape: String,
    /// Layer latency, ms.
    pub latency_ms: f64,
    /// Memory the framework allocated for the layer, bytes.
    pub alloc_bytes: u64,
    /// The underlying span.
    pub span_id: SpanId,
}

/// A kernel observation extracted from a correlated execution span.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Launch-order index within the run.
    pub order: usize,
    /// Kernel name.
    pub name: String,
    /// Index of the layer that launched it (`None` when no layer-level
    /// profile exists in the run).
    pub layer_index: Option<usize>,
    /// Kernel duration, ms.
    pub latency_ms: f64,
    /// Grid dims (as reported).
    pub grid: String,
    /// Block dims (as reported).
    pub block: String,
    /// `flop_count_sp` (present when metric profiling was on).
    pub flops: Option<u64>,
    /// `dram_read_bytes`.
    pub dram_read: Option<u64>,
    /// `dram_write_bytes`.
    pub dram_write: Option<u64>,
    /// `achieved_occupancy`.
    pub occupancy: Option<f64>,
}

/// Everything one evaluation run produced: its correlated trace, and the
/// phase, layer and kernel tables derived from it.
///
/// The tables are extracted from the trace on first call of
/// [`RunProfile::phases`], [`RunProfile::layers`] or
/// [`RunProfile::kernels`], once each. A live run
/// ([`run_once_with_metrics`]) extracts them before it returns, on the
/// evaluation engine's worker. A run rebuilt from a trace
/// ([`profile_from_correlated`], [`profile_from_trace`], the `.xspc`
/// reload) leaves them to its first reader, so a run nobody reads a table
/// of never pays for one, and a reloaded run's spans are not even decoded
/// until something reads them.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// The profiling level the run used.
    pub level: ProfilingLevel,
    /// Trace id of the run.
    pub trace_id: TraceId,
    /// The correlated trace (for hierarchy rendering/export).
    pub trace: CorrelatedTrace,
    /// Whether parent reconstruction needed (and used) a serialized re-run.
    pub used_serialized_rerun: bool,
    // The tables, each extracted from `trace` on first use.
    phases: OnceLock<ModelPhases>,
    layers: OnceLock<Vec<LayerProfile>>,
    kernels: OnceLock<Vec<KernelProfile>>,
}

impl RunProfile {
    /// A run over `trace` whose tables are extracted on first use.
    fn new(level: ProfilingLevel, trace: CorrelatedTrace, used_serialized_rerun: bool) -> Self {
        Self {
            level,
            trace_id: trace.first_trace_id().unwrap_or(TraceId(0)),
            trace,
            used_serialized_rerun,
            phases: OnceLock::new(),
            layers: OnceLock::new(),
            kernels: OnceLock::new(),
        }
    }

    /// Model-level phases.
    pub fn phases(&self) -> ModelPhases {
        *self.phases.get_or_init(|| extract_phases(&self.trace))
    }

    /// Replaces the run's phases (tests fabricate measurements this way).
    #[cfg(test)]
    pub(crate) fn set_phases(&mut self, phases: ModelPhases) {
        self.phases = OnceLock::from(phases);
    }

    /// Per-layer observations, by layer index (empty below M/L).
    pub fn layers(&self) -> &[LayerProfile] {
        self.layers.get_or_init(|| extract_layers(&self.trace))
    }

    /// Per-kernel observations, in launch order (empty below M/L/G).
    pub fn kernels(&self) -> &[KernelProfile] {
        self.kernels
            .get_or_init(|| extract_kernels(&self.trace, self.layers()))
    }

    /// Total GPU kernel time, ms.
    pub fn kernel_latency_ms(&self) -> f64 {
        self.kernels().iter().map(|k| k.latency_ms).sum()
    }
}

/// Runs the inference pipeline once at `level` and returns the extracted
/// profile. `run_idx` seeds the jitter so repeated runs vary like real
/// measurements.
///
/// One call is the unit of work of the parallel evaluation engine
/// ([`crate::scheduler`]): it is self-contained (own tracing server and
/// simulated context, spans published through per-run buffers) and
/// deterministic in `(cfg, graph, level, run_idx)`, so any number of calls
/// may execute concurrently. The [`crate::scheduler::Parallelism`] knob
/// travels in `cfg` and governs how the orchestrators in
/// [`crate::profile`] fan these calls out.
pub fn run_once(
    cfg: &XspConfig,
    graph: &LayerGraph,
    level: ProfilingLevel,
    run_idx: u64,
) -> RunProfile {
    run_once_with_metrics(cfg, graph, level, run_idx, false)
}

/// Like [`run_once`], with GPU metric collection optionally enabled.
/// Metric collection replays kernels (§III-C) — wall-clock latencies of the
/// run balloon while reported per-kernel durations stay accurate, so the
/// orchestrator keeps metric runs separate from the plain M/L/G runs used
/// for latency measurement.
///
/// A single call lowers `graph` into its own [`ExecutionPlan`] and runs it;
/// [`crate::profile::Xsp::run`] builds that plan once and shares it among
/// every run of a profile.
pub fn run_once_with_metrics(
    cfg: &XspConfig,
    graph: &LayerGraph,
    level: ProfilingLevel,
    run_idx: u64,
    with_metrics: bool,
) -> RunProfile {
    run_planned(cfg, &plan_for(cfg, graph), level, run_idx, with_metrics)
}

/// The execution plan of `graph` for the configured framework and GPU.
pub(crate) fn plan_for(cfg: &XspConfig, graph: &LayerGraph) -> Arc<ExecutionPlan> {
    Arc::new(ExecutionPlan::new(
        cfg.framework,
        graph,
        cfg.system.gpu.arch,
    ))
}

/// One run of [`run_once_with_metrics`], replaying a plan built by
/// [`plan_for`] from the same config.
pub(crate) fn run_planned(
    cfg: &XspConfig,
    plan: &Arc<ExecutionPlan>,
    level: ProfilingLevel,
    run_idx: u64,
    with_metrics: bool,
) -> RunProfile {
    let server = TracingServer::new();
    let trace_id = server.fresh_trace_id();
    // Per-run span buffers (one per profiler): spans accumulate locally and
    // reach the server as atomic batches, so a run stays safe and
    // deterministic when the evaluation engine executes it on a worker
    // thread next to other runs.
    let model_tracer = server.buffer("model_timer");
    let layer_tracer = server.buffer("framework_profiler");
    let library_tracer = server.buffer("library_interposer");
    let kernel_tracer = server.buffer("cupti");

    let ctx = Arc::new(CudaContext::new(
        CudaContextConfig::new(cfg.system.clone())
            .seed(cfg.seed.wrapping_add(run_idx))
            .jitter(cfg.jitter),
    ));
    let cupti = if level.includes_gpu() {
        let metrics = if with_metrics {
            cfg.metrics.clone()
        } else {
            Vec::new()
        };
        let cupti = Arc::new(Cupti::new(metrics, cfg.system.gpu.clone()));
        ctx.register_hook(cupti.clone());
        Some(cupti)
    } else {
        None
    };

    let session = Session::with_plan(Arc::clone(plan), ctx.clone());
    let clock = ctx.clock().clone();
    let batch = plan.graph().batch() as u64;

    // ---- model-level pipeline (Figure 1) -------------------------------
    let pre = crate::api::start_span(&model_tracer, &clock, trace_id, "input_preprocess");
    clock.advance(PREPROCESS_PER_IMAGE_NS * batch.max(1));
    pre.finish();

    let mut predict = crate::api::start_span(&model_tracer, &clock, trace_id, "model_prediction");
    predict.tag(tag_keys::BATCH_SIZE, batch);
    let host_tracer = server.buffer("host_profiler");
    let opts = if level.includes_layers() {
        let mut base = RunOptions::with_layer_profiling(&layer_tracer, trace_id);
        if cfg.library_level && level.includes_gpu() {
            base = base.with_library_tracing(&library_tracer);
        }
        if cfg.host_level && level.includes_gpu() {
            base = base.with_host_tracing(&host_tracer);
        }
        base
    } else {
        RunOptions::silent(trace_id)
    };
    let _stats = session.predict(&opts);
    predict.finish();

    let post = crate::api::start_span(&model_tracer, &clock, trace_id, "output_postprocess");
    clock.advance(POSTPROCESS_PER_IMAGE_NS * batch.max(1));
    post.finish();

    if let Some(cupti) = &cupti {
        cupti.flush_to_tracer(&kernel_tracer, trace_id);
    }

    // Flush every buffer (fixed order: top of the stack first) before
    // assembling the run's trace.
    for buffer in [
        &model_tracer,
        &layer_tracer,
        &library_tracer,
        &host_tracer,
        &kernel_tracer,
    ] {
        buffer.flush();
    }
    // The server holds this run only; the engine moves its spans into the
    // correlated trace without cloning them.
    let mut correlated = CorrelationEngine::new().correlate(server.drain());
    let mut used_rerun = false;

    // Serialized re-run for ambiguous parents (§III-A). The repeated run
    // executes with CUDA_LAUNCH_BLOCKING semantics, yielding unambiguous
    // kernel→layer assignment by launch order, which we graft back.
    if correlated.ambiguities.needs_serialized_rerun() {
        used_rerun = true;
        let assignment = serialized_kernel_assignment(cfg, plan, level, run_idx);
        apply_assignment(&mut correlated, &assignment);
    }

    // Extract every table here, on the engine's worker.
    let run = RunProfile {
        trace_id,
        ..RunProfile::new(level, correlated, used_rerun)
    };
    run.phases();
    run.kernels();
    run
}

/// Runs serialized (`CUDA_LAUNCH_BLOCKING=1`) and returns the layer index
/// for each kernel launch, in launch order.
fn serialized_kernel_assignment(
    cfg: &XspConfig,
    plan: &Arc<ExecutionPlan>,
    level: ProfilingLevel,
    run_idx: u64,
) -> Vec<Option<usize>> {
    let server = TracingServer::new();
    let trace_id = server.fresh_trace_id();
    let layer_tracer = server.tracer("framework_profiler");
    let kernel_tracer = server.tracer("cupti");
    let ctx = Arc::new(CudaContext::new(
        CudaContextConfig::new(cfg.system.clone())
            .seed(cfg.seed.wrapping_add(run_idx) ^ 0xB10C)
            .jitter(cfg.jitter)
            .launch_blocking(true),
    ));
    let cupti = Arc::new(Cupti::new(Vec::new(), cfg.system.gpu.clone()));
    ctx.register_hook(cupti.clone());
    let session = Session::with_plan(Arc::clone(plan), ctx.clone());
    // model span so reconstruction has a root
    let model_tracer = server.tracer("model_timer");
    let clock = ctx.clock().clone();
    let span = crate::api::start_span(&model_tracer, &clock, trace_id, "model_prediction");
    let opts = if level.includes_layers() {
        RunOptions::with_layer_profiling(&layer_tracer, trace_id)
    } else {
        RunOptions::silent(trace_id)
    };
    session.predict(&opts);
    span.finish();
    cupti.flush_to_tracer(&kernel_tracer, trace_id);
    let correlated = CorrelationEngine::new().correlate(server.drain());
    let layers = extract_layers(&correlated);
    let kernels = extract_kernels(&correlated, &layers);
    kernels.into_iter().map(|k| k.layer_index).collect()
}

/// Grafts a serialized-run layer assignment onto an async trace: the i-th
/// kernel (launch order) gets the layer span whose index matches.
fn apply_assignment(correlated: &mut CorrelatedTrace, assignment: &[Option<usize>]) {
    // layer index -> span id in this trace
    let mut layer_span: HashMap<usize, SpanId> = HashMap::new();
    for s in correlated.spans() {
        if s.level == StackLevel::Layer {
            if let Some(idx) = s.tag(tag_keys::LAYER_INDEX).and_then(|v| v.as_u64()) {
                layer_span.insert(idx as usize, s.id);
            }
        }
    }
    // kernels in launch (correlation-id) order
    let mut kernel_positions: Vec<usize> = correlated
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.level == StackLevel::Kernel
                && s.is_async_execution()
                && s.tag(tag_keys::GRID).is_some()
        })
        .map(|(i, _)| i)
        .collect();
    kernel_positions.sort_by_key(|&i| correlated.spans()[i].correlation_id().unwrap_or(0));
    for (order, &pos) in kernel_positions.iter().enumerate() {
        if let Some(Some(layer_idx)) = assignment.get(order) {
            if let Some(&sid) = layer_span.get(layer_idx) {
                // `set_parent` keeps the trace's children/root indexes
                // coherent with the grafted assignment.
                correlated.set_parent(pos, sid);
            }
        }
    }
    correlated.ambiguities.ambiguous.clear();
}

fn extract_phases(trace: &CorrelatedTrace) -> ModelPhases {
    let ms = |name: &str| {
        trace
            .spans()
            .iter()
            .find(|s| s.level == StackLevel::Model && s.name == name)
            .map(|s| s.duration_ms())
            .unwrap_or(0.0)
    };
    ModelPhases {
        preprocess_ms: ms("input_preprocess"),
        predict_ms: ms("model_prediction"),
        postprocess_ms: ms("output_postprocess"),
    }
}

fn extract_layers(trace: &CorrelatedTrace) -> Vec<LayerProfile> {
    let mut layers: Vec<LayerProfile> = trace
        .spans()
        .iter()
        .filter(|s| s.level == StackLevel::Layer)
        .filter_map(|s| {
            let index = s.tag(tag_keys::LAYER_INDEX)?.as_u64()? as usize;
            Some(LayerProfile {
                index,
                name: s.name.clone(),
                type_name: s
                    .tag(tag_keys::LAYER_TYPE)
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_owned(),
                shape: s
                    .tag(tag_keys::LAYER_SHAPE)
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_owned(),
                latency_ms: s.duration_ms(),
                alloc_bytes: s
                    .tag(tag_keys::ALLOC_BYTES)
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0),
                span_id: s.id,
            })
        })
        .collect();
    layers.sort_by_key(|l| l.index);
    layers
}

fn extract_kernels(trace: &CorrelatedTrace, layers: &[LayerProfile]) -> Vec<KernelProfile> {
    let span_to_layer: HashMap<SpanId, usize> =
        layers.iter().map(|l| (l.span_id, l.index)).collect();
    // With the library level enabled, kernels parent to cuDNN API spans
    // whose parents are the layer spans: resolve through one extra hop
    // (`parent_index` is an O(1) lookup in the trace's built-once index).
    let resolve_layer = |mut at: usize| -> Option<usize> {
        for _ in 0..3 {
            if let Some(&idx) = span_to_layer.get(&trace.spans()[at].parent?) {
                return Some(idx);
            }
            at = trace.parent_index(at)?;
        }
        None
    };
    let mut kernels: Vec<(u64, KernelProfile)> = trace
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.level == StackLevel::Kernel
                && s.is_async_execution()
                && s.tag(tag_keys::GRID).is_some()
        })
        .map(|(i, s)| {
            let cid = s.correlation_id().unwrap_or(0);
            let layer_index = resolve_layer(i);
            (
                cid,
                KernelProfile {
                    order: 0,
                    name: s.name.clone(),
                    layer_index,
                    latency_ms: s.duration_ms(),
                    grid: s
                        .tag(tag_keys::GRID)
                        .and_then(|v| v.as_str())
                        .unwrap_or("")
                        .to_owned(),
                    block: s
                        .tag(tag_keys::BLOCK)
                        .and_then(|v| v.as_str())
                        .unwrap_or("")
                        .to_owned(),
                    flops: s.tag(tag_keys::FLOP_COUNT_SP).and_then(|v| v.as_u64()),
                    dram_read: s.tag(tag_keys::DRAM_READ_BYTES).and_then(|v| v.as_u64()),
                    dram_write: s.tag(tag_keys::DRAM_WRITE_BYTES).and_then(|v| v.as_u64()),
                    occupancy: s.tag(tag_keys::ACHIEVED_OCCUPANCY).and_then(|v| v.as_f64()),
                },
            )
        })
        .collect();
    kernels.sort_by_key(|(cid, _)| *cid);
    kernels
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut k))| {
            k.order = i;
            k
        })
        .collect()
}

/// Rebuilds a [`RunProfile`] from an already-collected raw trace — the
/// offline-analysis path of §III-A ("the conversion ... can be performed
/// off-line by processing the output of the profiler"). The spans may come
/// from [`xsp_trace::export::from_span_json`].
///
/// Caveat for multi-run captures: every live run allocates trace ids from
/// its own server, so all runs of a saved capture share `TraceId(1)` and
/// are re-correlated as one run. That is sound for captures this pipeline
/// exported — async pairs are already merged (both-flags spans pass
/// through untouched) and every non-root span carries its explicit parent,
/// so re-correlation is a no-op — but hand-built JSONL containing
/// *unpaired* async halves or parentless spans in several runs can pair or
/// parent across run boundaries. Splitting on a per-run tag instead would
/// change the capture format.
pub fn profile_from_trace(trace: xsp_trace::Trace, level: ProfilingLevel) -> RunProfile {
    let correlated = CorrelationEngine::new().correlate(trace);
    profile_from_correlated(correlated, level)
}

/// Wraps an already-correlated trace as a [`RunProfile`] — the entry point
/// for callers that ran correlation themselves, and for the `.xspc`
/// reload, whose traces decode on first access. The run's id is its first
/// span's, and its tables are extracted on first use.
pub fn profile_from_correlated(correlated: CorrelatedTrace, level: ProfilingLevel) -> RunProfile {
    RunProfile::new(level, correlated, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn cfg() -> XspConfig {
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
    }

    fn small_graph(batch: usize) -> LayerGraph {
        zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(batch)
    }

    #[test]
    fn model_level_run_has_phases_only() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::Model, 0);
        assert!(p.phases().predict_ms > 0.0);
        assert!(p.phases().preprocess_ms > 0.0);
        assert!(p.layers().is_empty());
        assert!(p.kernels().is_empty());
    }

    #[test]
    fn layer_level_run_collects_layers() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayer, 0);
        assert!(!p.layers().is_empty());
        assert!(p.kernels().is_empty());
        // executed graph: every layer indexed consecutively
        for (i, l) in p.layers().iter().enumerate() {
            assert_eq!(l.index, i);
        }
    }

    #[test]
    fn gpu_level_run_correlates_kernels_to_layers() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayerGpu, 0);
        assert!(!p.kernels().is_empty());
        assert!(
            p.trace.ambiguities.is_clean() || p.used_serialized_rerun,
            "{:?}",
            p.trace.ambiguities
        );
        // every kernel belongs to some layer
        let orphan_kernels = p
            .kernels()
            .iter()
            .filter(|k| k.layer_index.is_none())
            .count();
        assert_eq!(orphan_kernels, 0, "all kernels must map to layers");
        // conv layers launched conv kernels
        let conv_layer = p
            .layers()
            .iter()
            .find(|l| l.type_name == "Conv2D")
            .expect("conv layer");
        let conv_kernels: Vec<_> = p
            .kernels()
            .iter()
            .filter(|k| k.layer_index == Some(conv_layer.index))
            .collect();
        assert!(!conv_kernels.is_empty());
    }

    #[test]
    fn metrics_populate_kernel_fields() {
        let mut c = cfg();
        c.metrics = xsp_cupti::MetricKind::ALL.to_vec();
        let p = run_once_with_metrics(&c, &small_graph(1), ProfilingLevel::ModelLayerGpu, 0, true);
        let k = p
            .kernels()
            .iter()
            .find(|k| k.name.contains("scudnn") || k.name.contains("convolve"))
            .expect("a conv kernel");
        assert!(k.flops.is_some());
        assert!(k.dram_read.is_some());
        assert!(k.occupancy.is_some());
    }

    #[test]
    fn kernel_latency_sums_below_predict_latency() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayerGpu, 0);
        assert!(p.kernel_latency_ms() < p.phases().predict_ms);
        assert!(p.kernel_latency_ms() > 0.0);
    }

    #[test]
    fn layer_latencies_sum_close_to_kernel_windows() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayerGpu, 0);
        // each layer's kernels fit within the layer latency
        for l in p.layers() {
            let layer_kernel_ms: f64 = p
                .kernels()
                .iter()
                .filter(|k| k.layer_index == Some(l.index))
                .map(|k| k.latency_ms)
                .sum();
            assert!(
                layer_kernel_ms <= l.latency_ms + 1e-6,
                "layer {} ({}): kernels {layer_kernel_ms} ms > layer {} ms",
                l.index,
                l.name,
                l.latency_ms
            );
        }
    }

    #[test]
    fn runs_are_deterministic_per_index() {
        let a = run_once(&cfg(), &small_graph(1), ProfilingLevel::Model, 7);
        let b = run_once(&cfg(), &small_graph(1), ProfilingLevel::Model, 7);
        assert_eq!(a.phases().predict_ms, b.phases().predict_ms);
        let c = run_once(&cfg(), &small_graph(1), ProfilingLevel::Model, 8);
        assert_ne!(a.phases().predict_ms, c.phases().predict_ms);
    }
}
