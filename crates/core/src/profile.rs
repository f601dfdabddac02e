//! Leveled experimentation (§III-C) and multi-run orchestration (§III-D).
//!
//! "Profilers at a specific stack level accurately capture the events within
//! that level. ... the profiling overhead can be controlled by picking the
//! profiling level. For an event at level n, the profiling overhead
//! introduced at level n+1 can be quantified by subtracting the latency of
//! the event when profilers up to level n are enabled from the latency when
//! profilers up to level n+1 are enabled."
//!
//! [`Xsp::run`] therefore runs the model at M, M/L, and M/L/G and keeps,
//! for every event, the measurement from the *shallowest* level that
//! observes it: model latency from M runs, layer latencies from M/L runs,
//! kernel latencies from M/L/G runs. The per-level overhead is what
//! [`LeveledProfile::overhead_report`] quantifies (Figure 2).
//!
//! Every run of a leveled experiment is independent (own tracing server,
//! own simulated context, seed-deterministic), so the orchestrators here
//! fan runs out to the parallel evaluation engine ([`crate::scheduler`])
//! and merge results in submission order — output is byte-identical for
//! any [`Parallelism`] setting.

use crate::cache::{self, GraphFingerprint};
use crate::export::ExportSink;
use crate::pipeline::{plan_for, run_planned, KernelProfile, LayerProfile, RunProfile};
use crate::scheduler::{parmap, Parallelism};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use xsp_cupti::MetricKind;
use xsp_framework::{FrameworkKind, LayerGraph};
use xsp_gpu::System;
use xsp_trace::stats::trimmed_mean;
use xsp_trace::with_span_id_scope;

/// Which profilers are enabled for a run (paper notation M, M/L, M/L/G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfilingLevel {
    /// Model-level timers only (M).
    Model,
    /// Model + framework layer profiler (M/L).
    ModelLayer,
    /// Model + layer + GPU kernel profiling (M/L/G).
    ModelLayerGpu,
}

impl ProfilingLevel {
    /// Whether the framework layer profiler is on.
    pub fn includes_layers(self) -> bool {
        matches!(
            self,
            ProfilingLevel::ModelLayer | ProfilingLevel::ModelLayerGpu
        )
    }

    /// Whether CUPTI-level profiling is on.
    pub fn includes_gpu(self) -> bool {
        matches!(self, ProfilingLevel::ModelLayerGpu)
    }

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            ProfilingLevel::Model => "M",
            ProfilingLevel::ModelLayer => "M/L",
            ProfilingLevel::ModelLayerGpu => "M/L/G",
        }
    }

    /// The accepted `--level` spellings, grouped per level (used by
    /// [`ParseLevelError`] to enumerate valid values).
    pub const SPELLINGS: [(&'static str, ProfilingLevel); 3] = [
        ("1|m|model", ProfilingLevel::Model),
        ("2|ml|m/l", ProfilingLevel::ModelLayer),
        ("3|mlg|m/l/g|full", ProfilingLevel::ModelLayerGpu),
    ];

    /// Parses the CLI `--level` spelling: `1`/`m` → M, `2`/`ml` → M/L,
    /// `3`/`mlg`/`full` → M/L/G. Rejection carries the offending value and
    /// enumerates every accepted spelling (see [`ParseLevelError`]).
    pub fn parse(raw: &str) -> Result<Self, ParseLevelError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "m" | "model" => Ok(ProfilingLevel::Model),
            "2" | "ml" | "m/l" => Ok(ProfilingLevel::ModelLayer),
            "3" | "mlg" | "m/l/g" | "full" => Ok(ProfilingLevel::ModelLayerGpu),
            _ => Err(ParseLevelError {
                value: raw.to_owned(),
            }),
        }
    }
}

/// Rejection produced by [`ProfilingLevel::parse`]: carries the rejected
/// spelling and renders every valid one, so CLI and daemon callers surface
/// the same self-explanatory message instead of a bare "bad --level".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLevelError {
    /// The spelling that failed to parse, verbatim.
    pub value: String,
}

impl fmt::Display for ParseLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown profiling level '{}'; valid values:", self.value)?;
        for (i, (spellings, level)) in ProfilingLevel::SPELLINGS.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}{spellings} ({})", level.label())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseLevelError {}

/// XSP configuration: target system, framework, and measurement policy.
#[derive(Debug, Clone)]
pub struct XspConfig {
    /// Evaluation system (Table VII).
    pub system: System,
    /// Framework personality.
    pub framework: FrameworkKind,
    /// Evaluations per level ("the pipeline takes traces from a user-defined
    /// number of evaluations").
    pub runs: usize,
    /// Trim fraction for the trimmed-mean summary.
    pub trim: f64,
    /// Base jitter seed.
    pub seed: u64,
    /// Jitter amplitude.
    pub jitter: f64,
    /// GPU metrics to collect in M/L/G runs.
    pub metrics: Vec<MetricKind>,
    /// §III-E extension: capture library-level (cuDNN/cuBLAS API) spans
    /// between the layer and kernel levels in M/L/G runs.
    pub library_level: bool,
    /// §III-E extension: capture host/CPU dispatch spans alongside the GPU
    /// activity in M/L/G runs.
    pub host_level: bool,
    /// Worker count of the parallel evaluation engine: independent
    /// `(run, level)` points of one experiment fan out to this many workers
    /// (results are merged deterministically — see [`crate::scheduler`]).
    pub parallelism: Parallelism,
    /// Streaming export sink: when set, every completed run's spans are
    /// appended (span-JSON-lines, submission order) as the experiment
    /// progresses — sweeps export as they run instead of materializing
    /// every profile first. See [`crate::export::ExportSink`].
    pub export_sink: Option<ExportSink>,
    /// Consult the process-wide content-addressed profile cache
    /// ([`crate::cache`]) on every request: hits skip profiling entirely
    /// and hand back the shared profile. Off by default.
    pub cached: bool,
    /// On-disk cache directory: misses that find a persisted `.xspc` here
    /// rebuild from it instead of re-profiling, and computed profiles are
    /// persisted back. Implies [`XspConfig::cached`].
    pub cache_dir: Option<PathBuf>,
}

impl XspConfig {
    /// Default policy: 3 evaluations, 10 % trim, all four GPU metrics,
    /// engine parallelism from `XSP_THREADS` (one worker per core when
    /// unset).
    pub fn new(system: System, framework: FrameworkKind) -> Self {
        Self {
            system,
            framework,
            runs: 3,
            trim: 0.1,
            seed: 0x5E_ED,
            jitter: 0.012,
            metrics: MetricKind::ALL.to_vec(),
            library_level: false,
            host_level: false,
            parallelism: Parallelism::from_env_or(Parallelism::Auto),
            export_sink: None,
            cached: false,
            cache_dir: None,
        }
    }

    /// Builder: enable the library-level tracer (§III-E extension).
    pub fn library_level(mut self, on: bool) -> Self {
        self.library_level = on;
        self
    }

    /// Builder: enable the host/CPU tracer (§III-E extension).
    pub fn host_level(mut self, on: bool) -> Self {
        self.host_level = on;
        self
    }

    /// Builder: number of evaluations per level.
    pub fn runs(mut self, runs: usize) -> Self {
        assert!(runs >= 1, "at least one evaluation");
        self.runs = runs;
        self
    }

    /// Builder: metric selection.
    pub fn metrics(mut self, metrics: Vec<MetricKind>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builder: jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: evaluation-engine worker count (overrides the `XSP_THREADS`
    /// default picked up by [`XspConfig::new`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builder: streaming export sink — spans of every completed run are
    /// appended to it as evaluation progresses.
    pub fn export_sink(mut self, sink: ExportSink) -> Self {
        self.export_sink = Some(sink);
        self
    }

    /// Builder: consult the process-wide profile cache on every request.
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }

    /// Builder: persist profiles to (and rebuild them from) `.xspc` files
    /// in `dir`. Implies [`XspConfig::cached`].
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self.cached = true;
        self
    }
}

/// The merged result of leveled experimentation on one (graph, system,
/// framework) triple.
#[derive(Debug, Clone)]
pub struct LeveledProfile {
    /// M-level runs.
    pub m_runs: Vec<RunProfile>,
    /// M/L-level runs.
    pub ml_runs: Vec<RunProfile>,
    /// M/L/G-level runs (kernel tracing without metric collection).
    pub mlg_runs: Vec<RunProfile>,
    /// M/L/G runs with hardware-metric collection (kernel replay) enabled;
    /// supply the metric tags merged into [`LeveledProfile::kernels`].
    pub metric_runs: Vec<RunProfile>,
    /// Trim fraction used for summaries.
    pub trim: f64,
    /// Batch size of the profiled graph.
    pub batch: usize,
}

impl LeveledProfile {
    /// Model prediction latency, ms — the *accurate* value, from M runs.
    pub fn model_latency_ms(&self) -> f64 {
        let samples: Vec<f64> = self.m_runs.iter().map(|r| r.phases().predict_ms).collect();
        trimmed_mean(&samples, self.trim).unwrap_or(0.0)
    }

    /// Throughput, inputs/second, at this batch size.
    pub fn throughput(&self) -> f64 {
        let ms = self.model_latency_ms();
        if ms <= 0.0 {
            0.0
        } else {
            self.batch as f64 / ms * 1e3
        }
    }

    /// Per-layer profiles with latencies trimmed-averaged across M/L runs
    /// (the accurate layer-level values).
    pub fn layers(&self) -> Vec<LayerProfile> {
        merge_layers(&self.ml_runs, self.trim)
    }

    /// Per-kernel profiles: latencies merged across the plain M/L/G runs,
    /// metric values (flops, DRAM traffic, occupancy) grafted from the
    /// metric-collection runs — the per-level accuracy rule of §III-C.
    pub fn kernels(&self) -> Vec<KernelProfile> {
        let mut kernels = if self.mlg_runs.is_empty() {
            merge_kernels(&self.metric_runs, self.trim)
        } else {
            merge_kernels(&self.mlg_runs, self.trim)
        };
        if let Some(metric_run) = self.metric_runs.first() {
            for k in &mut kernels {
                if let Some(m) = metric_run.kernels().get(k.order) {
                    if m.name == k.name {
                        k.flops = m.flops;
                        k.dram_read = m.dram_read;
                        k.dram_write = m.dram_write;
                        k.occupancy = m.occupancy;
                        if k.layer_index.is_none() {
                            k.layer_index = m.layer_index;
                        }
                    }
                }
            }
        }
        kernels
    }

    /// Prediction latency of a metric-collection run — the ">100x" slowdown
    /// regime of §III-C, useful for demonstrating why leveled
    /// experimentation exists.
    pub fn metric_run_predict_ms(&self) -> f64 {
        let samples: Vec<f64> = self
            .metric_runs
            .iter()
            .map(|r| r.phases().predict_ms)
            .collect();
        trimmed_mean(&samples, self.trim).unwrap_or(0.0)
    }

    /// Layer profiles as observed in the M/L/G runs — needed when relating
    /// layers to kernels within the same run (A11-A14).
    pub fn layers_at_gpu_level(&self) -> Vec<LayerProfile> {
        if self.mlg_runs.is_empty() {
            merge_layers(&self.metric_runs, self.trim)
        } else {
            merge_layers(&self.mlg_runs, self.trim)
        }
    }

    /// Model prediction latency as observed at a given level (includes that
    /// level's profiling overhead) — the input to Figure 2.
    pub fn predict_ms_at(&self, level: ProfilingLevel) -> f64 {
        let runs = match level {
            ProfilingLevel::Model => &self.m_runs,
            ProfilingLevel::ModelLayer => &self.ml_runs,
            ProfilingLevel::ModelLayerGpu => &self.mlg_runs,
        };
        let samples: Vec<f64> = runs.iter().map(|r| r.phases().predict_ms).collect();
        trimmed_mean(&samples, self.trim).unwrap_or(0.0)
    }

    /// The leveled-experimentation overhead report (Figure 2): prediction
    /// latency observed at each level and the incremental overhead.
    pub fn overhead_report(&self) -> OverheadReport {
        let m = self.predict_ms_at(ProfilingLevel::Model);
        let ml = self.predict_ms_at(ProfilingLevel::ModelLayer);
        let mlg = self.predict_ms_at(ProfilingLevel::ModelLayerGpu);
        OverheadReport {
            model_ms: m,
            model_layer_ms: ml,
            model_layer_gpu_ms: mlg,
            layer_overhead_ms: ml - m,
            gpu_overhead_ms: mlg - ml,
        }
    }

    /// Total GPU kernel latency, ms (from M/L/G runs).
    pub fn kernel_latency_ms(&self) -> f64 {
        self.kernels().iter().map(|k| k.latency_ms).sum()
    }

    /// GPU latency percentage: kernel time over accurate model latency
    /// (Table IX "GPU latency percentage").
    pub fn gpu_latency_percent(&self) -> f64 {
        100.0 * self.kernel_latency_ms() / self.model_latency_ms().max(f64::EPSILON)
    }

    /// Every run of the profile, in canonical order: M runs, then M/L, then
    /// M/L/G, then metric runs — the order every exporter and the streaming
    /// sink use.
    pub fn runs(&self) -> impl Iterator<Item = &RunProfile> {
        [
            &self.m_runs,
            &self.ml_runs,
            &self.mlg_runs,
            &self.metric_runs,
        ]
        .into_iter()
        .flatten()
    }

    /// Every span of every run ([`LeveledProfile::runs`] order; within a
    /// run, trace-assembly order) — borrowed, so exporters can stream the
    /// profile without cloning it.
    pub fn iter_spans(&self) -> impl Iterator<Item = &xsp_trace::Span> {
        self.runs().flat_map(|run| run.trace.iter_spans())
    }

    /// Every span, cloned, in [`LeveledProfile::iter_spans`] order.
    pub fn all_spans(&self) -> Vec<xsp_trace::Span> {
        self.iter_spans().cloned().collect()
    }

    /// Serializes the whole profile ([`LeveledProfile::iter_spans`]) to raw
    /// span JSON, streamed through
    /// [`xsp_trace::export::stream::SpanJsonWriter`]. Because runs are
    /// seed-deterministic and span ids are allocated from per-run scopes,
    /// this output is byte-identical whatever [`Parallelism`] produced the
    /// profile — the determinism contract the test suite enforces.
    pub fn to_span_json(&self) -> String {
        let mut writer =
            xsp_trace::export::SpanJsonWriter::new(Vec::new()).expect("Vec writes cannot fail");
        for span in self.iter_spans() {
            writer.write_span(span).expect("Vec writes cannot fail");
        }
        String::from_utf8(writer.finish().expect("Vec writes cannot fail"))
            .expect("span JSON is UTF-8")
    }
}

fn merge_layers(runs: &[RunProfile], trim: f64) -> Vec<LayerProfile> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .layers()
        .iter()
        .map(|proto| {
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.layers().get(proto.index))
                .map(|l| l.latency_ms)
                .collect();
            let mut merged = proto.clone();
            merged.latency_ms = trimmed_mean(&samples, trim).unwrap_or(proto.latency_ms);
            merged
        })
        .collect()
}

fn merge_kernels(runs: &[RunProfile], trim: f64) -> Vec<KernelProfile> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .kernels()
        .iter()
        .map(|proto| {
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.kernels().get(proto.order))
                .filter(|k| k.name == proto.name)
                .map(|k| k.latency_ms)
                .collect();
            let mut merged = proto.clone();
            merged.latency_ms = trimmed_mean(&samples, trim).unwrap_or(proto.latency_ms);
            merged
        })
        .collect()
}

/// Figure 2's numbers: per-level prediction latency and incremental
/// overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Accurate model latency (M).
    pub model_ms: f64,
    /// Latency with the layer profiler on (M/L).
    pub model_layer_ms: f64,
    /// Latency with layer + GPU profiling on (M/L/G).
    pub model_layer_gpu_ms: f64,
    /// Overhead the layer profiler introduced.
    pub layer_overhead_ms: f64,
    /// Additional overhead GPU profiling introduced.
    pub gpu_overhead_ms: f64,
}

/// A point in a batch-size sweep.
#[derive(Debug, Clone)]
pub struct BatchProfile {
    /// Batch size.
    pub batch: usize,
    /// The leveled profile at this batch.
    pub profile: LeveledProfile,
}

impl BatchProfile {
    /// Throughput at this batch.
    pub fn throughput(&self) -> f64 {
        self.profile.throughput()
    }
}

/// The XSP profiler front-end.
pub struct Xsp {
    cfg: XspConfig,
}

/// One independent evaluation point submitted to the engine.
#[derive(Debug, Clone, Copy)]
struct RunSpec {
    kind: RunKind,
    /// Seed offset of the run; doubles as the span-id scope key, which is
    /// what makes id allocation independent of worker scheduling.
    run_idx: u64,
}

#[derive(Debug, Clone, Copy)]
enum RunKind {
    /// Latency measurement at the given level.
    Plain(ProfilingLevel),
    /// M/L/G run with hardware-metric collection (kernel replay).
    Metrics,
}

impl RunKind {
    /// Seed-offset base of the kind's runs. This is the *one* table of
    /// span-id scope keys: every orchestrator entry point derives its run
    /// indices from it, so e.g. an M/L run profiles (and serializes)
    /// identically whether it was launched by [`Xsp::run`] or
    /// `xsp export --level 2`.
    fn base(self) -> u64 {
        match self {
            RunKind::Plain(ProfilingLevel::Model) => 0,
            RunKind::Plain(ProfilingLevel::ModelLayer) => 1000,
            RunKind::Plain(ProfilingLevel::ModelLayerGpu) => 2000,
            RunKind::Metrics => 3000,
        }
    }
}

/// What a profiling request runs beside the plain latency ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// The leveled ladder up to [`ProfileRequest::level`]: M runs at every
    /// level, plus the metric-collection runs when the request reaches
    /// M/L/G — the paper's full leveled experimentation.
    #[default]
    Leveled,
    /// M runs plus metric-collection runs only — kernels without layer
    /// runs (A15 across batch sizes needs kernels but not layers). The
    /// request's level is ignored: metric collection always replays at
    /// M/L/G.
    ModelAndMetrics,
}

/// One profiling request: a graph plus the level/mode shaping which runs
/// the orchestrator submits to the evaluation engine. This is the single
/// entry point every consumer — CLI subcommands, sweeps, benches, the
/// serving tier's per-step profiles — goes through:
///
/// ```
/// use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
/// use xsp_framework::FrameworkKind;
/// use xsp_gpu::systems;
///
/// let xsp = Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(2));
/// let graph = xsp_models::zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1);
/// // the full leveled experiment (M, M/L, M/L/G + metrics)…
/// let full = xsp.run(ProfileRequest::new(&graph));
/// assert!(!full.kernels().is_empty());
/// // …or just the cheap model-level runs of a batch sweep
/// let m = xsp.run(ProfileRequest::new(&graph).level(ProfilingLevel::Model));
/// assert!(m.model_latency_ms() > 0.0);
/// ```
///
/// The request fully determines the seed offsets (span-id scopes) of the
/// runs it expands to, so a given `(level, mode)` profiles — and
/// serializes — identically no matter which consumer submitted it.
#[derive(Debug, Clone, Copy)]
pub struct ProfileRequest<'g> {
    graph: &'g LayerGraph,
    level: ProfilingLevel,
    mode: ProfileMode,
}

impl<'g> ProfileRequest<'g> {
    /// A request for the full leveled experimentation of `graph`
    /// (level M/L/G, [`ProfileMode::Leveled`]).
    pub fn new(graph: &'g LayerGraph) -> Self {
        Self {
            graph,
            level: ProfilingLevel::ModelLayerGpu,
            mode: ProfileMode::Leveled,
        }
    }

    /// Truncates the leveled ladder at `level`: `Model` runs M only,
    /// `ModelLayer` runs M and M/L, `ModelLayerGpu` the full experiment
    /// including metric collection.
    pub fn level(mut self, level: ProfilingLevel) -> Self {
        self.level = level;
        self
    }

    /// Selects which run combination the request expands to.
    pub fn mode(mut self, mode: ProfileMode) -> Self {
        self.mode = mode;
        self
    }

    /// The graph being profiled.
    pub fn graph(&self) -> &'g LayerGraph {
        self.graph
    }

    /// The run kinds the request expands to, in submission order.
    fn run_kinds(&self) -> Vec<RunKind> {
        match (self.mode, self.level) {
            (ProfileMode::Leveled, ProfilingLevel::Model) => {
                vec![RunKind::Plain(ProfilingLevel::Model)]
            }
            (ProfileMode::Leveled, ProfilingLevel::ModelLayer) => vec![
                RunKind::Plain(ProfilingLevel::Model),
                RunKind::Plain(ProfilingLevel::ModelLayer),
            ],
            (ProfileMode::Leveled, ProfilingLevel::ModelLayerGpu) => vec![
                RunKind::Plain(ProfilingLevel::Model),
                RunKind::Plain(ProfilingLevel::ModelLayer),
                RunKind::Plain(ProfilingLevel::ModelLayerGpu),
                RunKind::Metrics,
            ],
            (ProfileMode::ModelAndMetrics, _) => {
                vec![RunKind::Plain(ProfilingLevel::Model), RunKind::Metrics]
            }
        }
    }
}

impl Xsp {
    /// Creates a profiler with the given configuration.
    pub fn new(cfg: XspConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &XspConfig {
        &self.cfg
    }

    /// Executes a list of independent run specs through the parallel
    /// evaluation engine and returns the profiles in submission order.
    ///
    /// The graph is lowered once, before the runs fan out: every run (and
    /// any serialized re-run) replays the one read-only plan.
    /// Every run is wrapped in a span-id scope keyed by its seed offset, so
    /// id allocation — and therefore the serialized trace — is independent
    /// of which worker executes the run and in what order runs complete.
    fn run_specs(&self, graph: &LayerGraph, specs: Vec<RunSpec>) -> Vec<RunProfile> {
        let plan = plan_for(&self.cfg, graph);
        let profiles = parmap(self.cfg.parallelism, specs, |_, spec| {
            let (level, with_metrics) = match spec.kind {
                RunKind::Plain(level) => (level, false),
                RunKind::Metrics => (ProfilingLevel::ModelLayerGpu, true),
            };
            with_span_id_scope(spec.run_idx, || {
                run_planned(&self.cfg, &plan, level, spec.run_idx, with_metrics)
            })
        });
        // Stream the finished runs to the export sink right here — after
        // the deterministic submission-order merge, before the caller sees
        // them — so sweeps export incrementally and the sink's bytes are
        // identical for every worker count.
        if let Some(sink) = &self.cfg.export_sink {
            sink.write_runs(&profiles);
        }
        profiles
    }

    /// Runs `cfg.runs` evaluations of each listed kind (submission order =
    /// list order) through the engine and slots each kind's runs into the
    /// matching [`LeveledProfile`] field — the shared body of every
    /// orchestrator entry point.
    fn profile_of(&self, graph: &LayerGraph, kinds: &[RunKind]) -> LeveledProfile {
        let runs = self.cfg.runs;
        let specs = kinds
            .iter()
            .flat_map(|&kind| {
                (0..runs).map(move |i| RunSpec {
                    kind,
                    run_idx: kind.base() + i as u64,
                })
            })
            .collect();
        let mut profiles = self.run_specs(graph, specs).into_iter();
        let mut profile = LeveledProfile {
            m_runs: Vec::new(),
            ml_runs: Vec::new(),
            mlg_runs: Vec::new(),
            metric_runs: Vec::new(),
            trim: self.cfg.trim,
            batch: graph.batch(),
        };
        for &kind in kinds {
            let group = profiles.by_ref().take(runs).collect();
            match kind {
                RunKind::Plain(ProfilingLevel::Model) => profile.m_runs = group,
                RunKind::Plain(ProfilingLevel::ModelLayer) => profile.ml_runs = group,
                RunKind::Plain(ProfilingLevel::ModelLayerGpu) => profile.mlg_runs = group,
                RunKind::Metrics => profile.metric_runs = group,
            }
        }
        profile
    }

    /// Executes one [`ProfileRequest`]: `runs` evaluations of each run
    /// kind the request expands to (submission order = kind order), fanned
    /// out to the evaluation engine per [`XspConfig::parallelism`]. All
    /// points are independent and the result does not depend on the worker
    /// count:
    ///
    /// ```
    /// use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
    /// use xsp_core::scheduler::Parallelism;
    /// use xsp_framework::FrameworkKind;
    /// use xsp_gpu::systems;
    ///
    /// let xsp = |p| {
    ///     Xsp::new(
    ///         XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
    ///             .runs(2)
    ///             .parallelism(p),
    ///     )
    /// };
    /// let graph = xsp_models::zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1);
    /// let request = ProfileRequest::new(&graph).level(ProfilingLevel::Model);
    /// let parallel = xsp(Parallelism::Fixed(2)).run(request);
    /// let serial = xsp(Parallelism::Serial).run(request);
    /// // the determinism contract: worker count never changes the result
    /// assert_eq!(parallel.to_span_json(), serial.to_span_json());
    /// ```
    pub fn run(&self, request: ProfileRequest<'_>) -> LeveledProfile {
        match Arc::try_unwrap(self.run_shared(request)) {
            Ok(profile) => profile,
            Err(shared) => (*shared).clone(),
        }
    }

    /// Executes one [`ProfileRequest`] like [`Xsp::run`], returning the
    /// profile behind an [`Arc`] — the entry point for consumers that keep
    /// profiles around (the serving memo, sweeps over repeated shapes),
    /// where a cache hit must stay a pointer bump instead of a span-vector
    /// deep copy.
    ///
    /// When the config opts into caching ([`XspConfig::cached`]), the
    /// process-wide
    /// [`crate::cache::global`] cache is consulted first, then the
    /// [`XspConfig::cache_dir`] disk tier, and only then is the profile
    /// computed (and stored back in both tiers). A hit replays the
    /// profile's runs to any configured export sink in the canonical
    /// [`LeveledProfile::runs`] order — exactly the submission order a
    /// cold run streams — so sink bytes stay identical, warm or cold, at
    /// any worker count.
    pub fn run_shared(&self, request: ProfileRequest<'_>) -> Arc<LeveledProfile> {
        if !self.cfg.cached {
            let profile = Arc::new(self.profile_of(request.graph(), &request.run_kinds()));
            return profile;
        }
        let fingerprint =
            GraphFingerprint::of(&self.cfg, request.graph, request.level, request.mode);
        let shared = cache::global();
        if let Some(hit) = shared.get(fingerprint.0) {
            self.replay_to_sink(&hit);
            return hit;
        }
        if let Some(dir) = &self.cfg.cache_dir {
            if let Some(loaded) = cache::load_from_dir(dir, fingerprint) {
                shared.note_disk_hit();
                shared.insert(fingerprint.0, Arc::clone(&loaded));
                self.replay_to_sink(&loaded);
                return loaded;
            }
        }
        // Cold: profile normally (run_specs streams to the sink itself),
        // then fill both tiers. Persistence failures degrade to a
        // recompute next time — a full disk must not fail the run.
        let profile = Arc::new(self.profile_of(request.graph(), &request.run_kinds()));
        shared.insert(fingerprint.0, Arc::clone(&profile));
        if let Some(dir) = &self.cfg.cache_dir {
            let _ = cache::persist_to_dir(dir, fingerprint, &profile);
        }
        profile
    }

    /// Streams a cache-served profile's runs to the configured export
    /// sink, replicating exactly what the cold path's per-merge
    /// [`ExportSink`] write produced: runs in canonical order, which *is*
    /// the submission order every request expands its kinds in.
    fn replay_to_sink(&self, profile: &LeveledProfile) {
        if let Some(sink) = &self.cfg.export_sink {
            sink.write_runs(profile.runs());
        }
    }

    /// Sweeps batch sizes (model-level profiling only), stopping early once
    /// throughput stops improving for two consecutive doublings.
    ///
    /// The sweep itself is sequential — each point decides whether the next
    /// one runs — but the evaluations *within* each point fan out to the
    /// engine. Full-range sweeps with no early stop (the figure benches)
    /// parallelize across batch points instead via [`crate::scheduler::parmap`].
    pub fn batch_sweep(
        &self,
        build: impl Fn(usize) -> LayerGraph,
        batches: &[usize],
    ) -> Vec<BatchProfile> {
        let mut out = Vec::new();
        let mut stale = 0usize;
        let mut best = 0.0f64;
        for &batch in batches {
            let graph = build(batch);
            let profile = self.run(ProfileRequest::new(&graph).level(ProfilingLevel::Model));
            let tp = profile.throughput();
            out.push(BatchProfile { batch, profile });
            if tp > best * 1.02 {
                best = best.max(tp);
                stale = 0;
            } else {
                stale += 1;
                if stale >= 2 {
                    break;
                }
            }
        }
        out
    }

    /// The paper's optimal-batch-size rule (§III-D1): "the batch size where
    /// doubling it does not increase the model's throughput by more than
    /// 5%".
    pub fn optimal_batch(sweep: &[BatchProfile]) -> usize {
        if sweep.is_empty() {
            return 1;
        }
        for w in sweep.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if b.batch == a.batch * 2 && b.throughput() <= a.throughput() * 1.05 {
                return a.batch;
            }
        }
        sweep
            .iter()
            .max_by(|a, b| a.throughput().partial_cmp(&b.throughput()).unwrap())
            .map(|p| p.batch)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ModelPhases;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn xsp() -> Xsp {
        Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(2))
    }

    fn tiny(batch: usize) -> LayerGraph {
        zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(batch)
    }

    #[test]
    fn leveled_profile_is_complete() {
        let p = xsp().run(ProfileRequest::new(&tiny(2)));
        assert_eq!(p.m_runs.len(), 2);
        assert!(!p.layers().is_empty());
        assert!(!p.kernels().is_empty());
        assert!(p.model_latency_ms() > 0.0);
        assert!(p.throughput() > 0.0);
    }

    #[test]
    fn overheads_are_positive_and_ordered() {
        let p = xsp().run(ProfileRequest::new(&tiny(2)));
        let o = p.overhead_report();
        assert!(
            o.model_ms < o.model_layer_ms,
            "layer profiling must add overhead: {o:?}"
        );
        assert!(
            o.model_layer_ms < o.model_layer_gpu_ms,
            "gpu profiling must add more overhead: {o:?}"
        );
        assert!(o.layer_overhead_ms > 0.0);
        assert!(o.gpu_overhead_ms > 0.0);
    }

    #[test]
    fn gpu_latency_percent_is_sane() {
        let p = xsp().run(ProfileRequest::new(&tiny(2)));
        let pct = p.gpu_latency_percent();
        assert!(pct > 5.0 && pct < 100.0, "GPU latency {pct}%");
    }

    #[test]
    fn optimal_batch_rule_applies_5_percent_doubling() {
        // synthetic sweep: throughput saturates at batch 8
        let mk = |batch: usize, tp_ms: f64| {
            let mut p = xsp().run(ProfileRequest::new(&tiny(1)).level(ProfilingLevel::Model));
            // overwrite the measured latency by fabricating batch/latency
            p.batch = batch;
            for r in &mut p.m_runs {
                let predict_ms = batch as f64 / tp_ms * 1000.0;
                r.set_phases(ModelPhases {
                    predict_ms,
                    ..r.phases()
                });
            }
            BatchProfile { batch, profile: p }
        };
        let sweep = vec![
            mk(1, 100.0),
            mk(2, 180.0),
            mk(4, 300.0),
            mk(8, 400.0),
            mk(16, 410.0), // +2.5% only
        ];
        assert_eq!(Xsp::optimal_batch(&sweep), 8);
    }

    #[test]
    fn batch_sweep_stops_after_saturation() {
        let xsp = xsp();
        let sweep = xsp.batch_sweep(tiny, &[1, 2, 4, 8, 16, 32, 64, 128, 256]);
        assert!(sweep.len() >= 2);
        // early termination must have kicked in before 256 for this tiny model
        // or completed the full range — either way throughput is recorded
        for p in &sweep {
            assert!(p.throughput() > 0.0);
        }
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let cfg = |p| {
            XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
                .runs(2)
                .parallelism(p)
        };
        let serial = Xsp::new(cfg(Parallelism::Serial)).run(ProfileRequest::new(&tiny(2)));
        let parallel = Xsp::new(cfg(Parallelism::Fixed(4))).run(ProfileRequest::new(&tiny(2)));
        assert_eq!(
            serial.to_span_json(),
            parallel.to_span_json(),
            "worker count must not change the trace"
        );
        assert_eq!(serial.model_latency_ms(), parallel.model_latency_ms());
    }

    #[test]
    fn levels_report_labels() {
        assert_eq!(ProfilingLevel::Model.label(), "M");
        assert_eq!(ProfilingLevel::ModelLayer.label(), "M/L");
        assert_eq!(ProfilingLevel::ModelLayerGpu.label(), "M/L/G");
        assert!(!ProfilingLevel::Model.includes_layers());
        assert!(ProfilingLevel::ModelLayerGpu.includes_gpu());
    }

    #[test]
    fn level_parse_accepts_every_spelling() {
        for (spellings, level) in ProfilingLevel::SPELLINGS {
            for s in spellings.split('|') {
                assert_eq!(ProfilingLevel::parse(s), Ok(level), "{s}");
                assert_eq!(ProfilingLevel::parse(&s.to_uppercase()), Ok(level));
            }
        }
        assert_eq!(ProfilingLevel::parse(" 2 "), Ok(ProfilingLevel::ModelLayer));
    }

    #[test]
    fn level_parse_rejection_lists_valid_values() {
        let err = ProfilingLevel::parse("deep").unwrap_err();
        assert_eq!(err.value, "deep");
        let msg = err.to_string();
        assert!(msg.contains("unknown profiling level 'deep'"), "{msg}");
        // The message must enumerate every accepted spelling with its label.
        for (spellings, level) in ProfilingLevel::SPELLINGS {
            assert!(msg.contains(spellings), "{msg} missing {spellings}");
            assert!(
                msg.contains(level.label()),
                "{msg} missing {}",
                level.label()
            );
        }
        // The rejected value survives verbatim (no trim/lowercase) so the
        // user recognizes their own input.
        assert_eq!(ProfilingLevel::parse(" M/G ").unwrap_err().value, " M/G ");
    }
}
