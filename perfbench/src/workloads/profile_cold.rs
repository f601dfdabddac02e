//! `profile_cold`: one op is `xsp profile --model M --batch B --chrome`,
//! run in process with the profile cache off and two engine workers.

use crate::rec::{Counted, Rec};
use crate::run_loop::{digest, Rng, Workload};
use std::hint::black_box;
use std::sync::Arc;
use xsp_core::analysis::{a10_kernel_info_by_name, a15_model_aggregate, a2_layer_info};
use xsp_core::pipeline::{profile_from_correlated, run_once_with_metrics};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_core::LeveledProfile;
use xsp_framework::{FrameworkKind, LayerGraph, RunOptions, Session};
use xsp_gpu::{systems, CudaContext, CudaContextConfig};
use xsp_models::zoo::{self, ModelEntry};
use xsp_trace::span::with_span_id_scope;
use xsp_trace::TraceId;

/// Engine workers: what `Parallelism::Auto` resolves to on a 2-core host,
/// fixed so that the figure never depends on `XSP_THREADS` or the host.
pub const WORKERS: usize = 2;

/// `xsp profile`'s default number of evaluations per level.
const RUNS: usize = 2;

/// The (model, batch) pool: conv-bound CNNs, host-bound detectors and
/// GEMM-bound transformers, chosen so that op times spread smoothly from
/// about 8 to 35 ms with no gap near the p50 or the p90. The seed picks one
/// of two batches per model (op time barely depends on it: the span count
/// does not) and the rotation order.
const POINTS: [(&str, [usize; 2]); 18] = [
    ("MLPerf_MobileNet_v1", [1, 2]),
    ("MobileNet_v1_0.5_224", [1, 2]),
    ("BERT-Base_SQuAD_384", [1, 2]),
    ("GPT2_Small_256", [1, 2]),
    ("SRGAN", [1, 2]),
    ("BVLC_GoogLeNet_Caffe", [1, 2]),
    ("ResNet_v1_50", [1, 2]),
    ("SSD_MobileNet_v1_PPN", [1, 2]),
    ("DeepLabv3_MobileNet_v2", [1, 2]),
    ("Inception_v1", [1, 2]),
    ("SSD_MobileNet_v1_FPN", [1, 2]),
    ("MLPerf_SSD_MobileNet_v1_300x300", [1, 2]),
    ("Inception_v3", [1, 2]),
    ("MLPerf_SSD_ResNet34_1200x1200", [1, 2]),
    ("SSD_MobileNet_v2", [1, 2]),
    ("ResNet_v1_101", [1, 2]),
    ("SSD_Inception_v2", [1, 2]),
    ("ResNet_v2_101", [1, 2]),
];

/// The M, M/L, M/L/G and metric runs, with the seed offsets `Xsp::run`
/// gives the first run of each kind.
const LEVELS: [(&str, ProfilingLevel, bool, u64); 4] = [
    ("pipeline.run_m", ProfilingLevel::Model, false, 0),
    ("pipeline.run_ml", ProfilingLevel::ModelLayer, false, 1000),
    (
        "pipeline.run_mlg",
        ProfilingLevel::ModelLayerGpu,
        false,
        2000,
    ),
    (
        "pipeline.run_metrics",
        ProfilingLevel::ModelLayerGpu,
        true,
        3000,
    ),
];

pub struct ProfileCold {
    points: Vec<(ModelEntry, usize)>,
    xsp: Xsp,
    system: xsp_gpu::System,
    /// The last op's Chrome trace and profile span count.
    last: Option<(String, usize)>,
    /// (rotation index, chrome digest) of every completed op.
    kept: Vec<(usize, u64)>,
}

/// Parallelism of the profiling that the other workloads' set-ups do to
/// record their inputs: serial, so that no engine worker thread allocates
/// before their timed phase. glibc keeps memory in the arenas of exited
/// threads, `malloc_trim` cannot always release it, and how much it keeps
/// varies from run to run (0 to 13 MiB on `serving_trace`), which would
/// move `peak_rss_mb`. Profiles are byte-identical at any worker count.
pub const SETUP_PARALLELISM: Parallelism = Parallelism::Serial;

pub fn config(parallelism: Parallelism) -> XspConfig {
    XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
        .runs(RUNS)
        .parallelism(parallelism)
}

impl ProfileCold {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut points: Vec<(ModelEntry, usize)> = POINTS
            .iter()
            .map(|(name, batches)| {
                let entry = zoo::by_name(name).unwrap_or_else(|| panic!("zoo has {name}"));
                (entry, batches[rng.below(2)])
            })
            .collect();
        rng.shuffle(&mut points);
        let mut w = Self {
            points,
            xsp: Xsp::new(config(Parallelism::Fixed(WORKERS))),
            system: systems::tesla_v100(),
            last: None,
            kept: Vec::new(),
        };
        // Warm-up: one pass over the rotation, so that every point is known
        // to profile and lazily built state is in place before the clock
        // starts.
        let quiet = Rec::new(false, std::time::Instant::now());
        for i in 0..w.points.len() {
            w.op(i, &quiet).expect("warm-up op");
        }
        w.last = None;
        w
    }

    fn chrome_of(p: &LeveledProfile) -> String {
        xsp_trace::export::to_chrome_trace_of(p.mlg_runs[0].trace.iter_spans())
    }
}

impl Workload for ProfileCold {
    fn cycle_len(&self) -> usize {
        self.points.len()
    }

    fn op(&mut self, i: usize, rec: &Rec) -> Result<(), String> {
        let (entry, batch) = &self.points[i % self.points.len()];
        let graph = rec.span("models.graph", || entry.graph(*batch));
        let p = rec.span_counted("profile.run", Counted::Process, || {
            self.xsp.run(ProfileRequest::new(&graph))
        });
        black_box(rec.span("analysis", || {
            (
                a2_layer_info(&p),
                a10_kernel_info_by_name(&p, &self.system),
                a15_model_aggregate(&p, &self.system),
            )
        }));
        let chrome = rec.span("export.chrome", || Self::chrome_of(&p));
        self.last = Some((chrome, p.iter_spans().count()));
        Ok(())
    }

    fn keep(&mut self, i: usize, rec: &Rec) {
        let (chrome, spans) = self.last.take().expect("op kept its output");
        rec.count("trace.spans_per_op", spans as u64);
        rec.count("export.bytes_out", chrome.len() as u64);
        self.kept
            .push((i % self.points.len(), digest(chrome.as_bytes())));
    }

    fn probe(&mut self, i: usize, rec: &Rec) {
        let (entry, batch) = &self.points[i];
        let graph: LayerGraph = rec.span("models.graph", || entry.graph(*batch));
        let cfg = self.xsp.config();
        let ctx = Arc::new(CudaContext::new(
            CudaContextConfig::new(cfg.system.clone())
                .seed(cfg.seed)
                .jitter(cfg.jitter),
        ));
        let session = Session::new(cfg.framework, &graph, ctx);
        black_box(rec.span("framework.predict", || {
            session.predict(&RunOptions::silent(TraceId(1)))
        }));
        for (name, level, metrics, run_idx) in LEVELS {
            let run = rec.span(name, || {
                with_span_id_scope(run_idx, || {
                    run_once_with_metrics(cfg, &graph, level, run_idx, metrics)
                })
            });
            if name == "pipeline.run_mlg" {
                let correlated = run.trace.clone();
                black_box(rec.span("pipeline.extract", || {
                    profile_from_correlated(correlated, level)
                }));
            }
        }
    }

    fn describe(&self) -> Vec<String> {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|(e, b)| format!("{}:b{b}", e.name))
            .collect();
        vec![format!("rotation: {}", points.join(" "))]
    }

    fn verify(&mut self) -> Vec<String> {
        // Parallel equals serial: each point's Chrome bytes must equal those
        // of a serial profile of the same point.
        let serial = Xsp::new(config(Parallelism::Serial));
        let mut reference: Vec<Option<u64>> = vec![None; self.points.len()];
        let mut failures = Vec::new();
        for (n, &(at, got)) in self.kept.iter().enumerate() {
            let want = *reference[at].get_or_insert_with(|| {
                let (entry, batch) = &self.points[at];
                let p = serial.run(ProfileRequest::new(&entry.graph(*batch)));
                digest(Self::chrome_of(&p).as_bytes())
            });
            if got != want {
                let (entry, batch) = &self.points[at];
                failures.push(format!(
                    "op {n}: {} b{batch}: Chrome trace differs from the serial profile",
                    entry.name
                ));
            }
        }
        failures
    }
}

/// `scheduler.speedup`: the serial estimate (`runs` evaluations of each
/// level, timed one by one in the probes) over the parallel `Xsp::run`.
pub fn derived(out: &crate::run_loop::Outcome) -> std::collections::HashMap<&'static str, f64> {
    let idx = crate::report::SpanIndex::new(out);
    let serial: f64 = LEVELS.iter().map(|(name, ..)| idx.call_ms(name)).sum();
    let parallel = idx.call_ms("profile.run");
    let mut m = std::collections::HashMap::new();
    if parallel > 0.0 {
        m.insert("scheduler.speedup", RUNS as f64 * serial / parallel);
    }
    m
}
