//! Criterion micro-benchmarks of the profiling infrastructure itself,
//! including the DESIGN.md ablation (interval tree vs linear scan for
//! parent reconstruction) and the correlation hot path the indexed trace
//! store optimizes: `TracingServer::drain` and `reconstruct_parents` at
//! 1k/10k spans, plus the end-to-end `run_once` pipeline.
//!
//! `--quick` (or `XSP_BENCH_QUICK=1`) runs only the correlation-path and
//! pipeline groups with a reduced sample count — the CI smoke lane.
//! `--json <path>` writes a machine-readable summary (median latencies of
//! the correlation-path benchmarks) so `BENCH_micro_infrastructure_ci.json` tracks
//! correlation regressions as an artifact delta across commits.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use xsp_bench::summary::{json_artifact_path, BenchSummary};
use xsp_core::pipeline::run_once;
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::{parmap, Parallelism};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::interval::{Interval, IntervalTree};
use xsp_trace::span::tag_keys;
use xsp_trace::stats::trimmed_mean;
use xsp_trace::{
    reconstruct_parents, Span, SpanBuilder, StackLevel, Trace, TraceId, Tracer, TracingServer,
};

fn mk_intervals(n: u64) -> Vec<Interval> {
    (0..n)
        .map(|i| {
            let start = (i * 37) % 10_000;
            Interval::new(start, start + 5 + (i % 40), i as usize)
        })
        .collect()
}

/// A synthetic correlated workload shaped like one M/L/G run: one model
/// span, 50 layers with explicit parents, and async kernel launch/execution
/// pairs filling the rest, spread over `runs` trace ids.
fn mk_run_spans(total: usize, runs: u64) -> Vec<Span> {
    let mut spans = Vec::with_capacity(total);
    let layers_per_run = 50usize;
    let per_run = total / runs as usize;
    for run in 0..runs {
        let trace_id = TraceId(run + 1);
        let model = SpanBuilder::new("model_prediction", StackLevel::Model, trace_id)
            .start(0)
            .finish(10_000_000);
        let model_id = model.id;
        spans.push(model);
        let layer_len = 10_000_000 / layers_per_run as u64;
        for l in 0..layers_per_run {
            spans.push(
                SpanBuilder::new(format!("layer{l}"), StackLevel::Layer, trace_id)
                    .start(l as u64 * layer_len)
                    .parent(model_id)
                    .finish((l as u64 + 1) * layer_len - 1),
            );
        }
        let kernels = (per_run.saturating_sub(1 + layers_per_run)) / 2;
        for k in 0..kernels as u64 {
            let layer_start = (k % layers_per_run as u64) * layer_len;
            let cid = k + 1;
            spans.push(
                SpanBuilder::new("cudaLaunchKernel", StackLevel::Kernel, trace_id)
                    .start(layer_start + 10)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_LAUNCH, true)
                    .finish(layer_start + 20),
            );
            spans.push(
                SpanBuilder::new("volta_scudnn_128x64", StackLevel::Kernel, trace_id)
                    .start(layer_start + 30)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_EXECUTION, true)
                    .finish(layer_start + layer_len / 2),
            );
        }
    }
    spans
}

/// Median wall time of `body` in microseconds over `samples` iterations
/// (one untimed warmup) — the value the `--json` summary records.
fn median_us(samples: usize, mut body: impl FnMut()) -> f64 {
    body();
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[(times.len() - 1) / 2]
}

fn bench_interval_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("interval_tree_ablation");
    for n in [100u64, 1_000, 10_000] {
        let intervals = mk_intervals(n);
        let tree = IntervalTree::build(intervals.clone());
        g.bench_with_input(BenchmarkId::new("tree_containing", n), &n, |b, _| {
            let mut found = Vec::new();
            b.iter(|| {
                found.clear();
                for probe in (0..10_000).step_by(97) {
                    tree.containing_into(probe, probe + 3, &mut found);
                }
                black_box(found.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("linear_containing", n), &n, |b, _| {
            b.iter(|| {
                let mut found = 0usize;
                for probe in (0..10_000u64).step_by(97) {
                    found += intervals
                        .iter()
                        .filter(|iv| iv.contains_range(probe, probe + 3))
                        .count();
                }
                black_box(found)
            })
        });
        g.bench_with_input(BenchmarkId::new("tree_build", n), &n, |b, _| {
            b.iter(|| black_box(IntervalTree::build(intervals.clone())))
        });
    }
    g.finish();
}

/// The trace-path hot spots of the indexed store: bucketed `drain` (spans
/// published through a buffer, grouped per trace id on the way out) and
/// `reconstruct_parents` (async merge + lazy per-level interval trees), at
/// 1k and 10k spans.
fn bench_correlation_path(c: &mut Criterion, mut summary: Option<&mut BenchSummary>, quick: bool) {
    let samples = if quick { 8 } else { 20 };
    let mut g = c.benchmark_group("correlation_path");
    g.sample_size(samples);
    for n in [1_000usize, 10_000] {
        let single_run = mk_run_spans(n, 1);
        let trace = Trace::from_spans(single_run.clone());
        g.bench_with_input(BenchmarkId::new("reconstruct_parents", n), &n, |b, _| {
            b.iter(|| black_box(reconstruct_parents(&trace)))
        });
        // The JSON summary measures its own medians (the vendored criterion
        // does not expose sample times), so only pay for the second
        // measurement when --json asked for the artifact.
        if let Some(summary) = summary.as_deref_mut() {
            summary.point(
                format!("reconstruct_parents/{n}"),
                &[(
                    "median_us",
                    median_us(samples, || {
                        black_box(reconstruct_parents(&trace));
                    }),
                )],
            );
        }

        // publish + drain over 8 interleaved runs: the bucketed accumulation
        // path (publication cost — one clone per span — is part of the
        // measured loop; it is identical across implementations).
        let multi_run = mk_run_spans(n, 8);
        let publish_drain = || {
            let server = TracingServer::new();
            let buffer = server.buffer("bench");
            for s in &multi_run {
                buffer.report(s.clone());
            }
            buffer.flush();
            black_box(server.drain())
        };
        g.bench_with_input(BenchmarkId::new("publish_drain", n), &n, |b, _| {
            b.iter(publish_drain)
        });
        if let Some(summary) = summary.as_deref_mut() {
            summary.point(
                format!("publish_drain/{n}"),
                &[(
                    "median_us",
                    median_us(samples, || {
                        publish_drain();
                    }),
                )],
            );
        }
    }
    g.finish();
}

fn bench_profiling_pipeline(c: &mut Criterion, summary: Option<&mut BenchSummary>, quick: bool) {
    let samples = if quick { 5 } else { 20 };
    let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow);
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(4);
    let mut g = c.benchmark_group("profiling_pipeline");
    g.sample_size(samples);
    g.bench_function("run_once_model_level", |b| {
        b.iter(|| black_box(run_once(&cfg, &graph, ProfilingLevel::Model, 0)))
    });
    g.bench_function("run_once_full_stack", |b| {
        b.iter(|| black_box(run_once(&cfg, &graph, ProfilingLevel::ModelLayerGpu, 0)))
    });
    g.finish();
    if let Some(summary) = summary {
        summary.point(
            "run_once_full_stack",
            &[(
                "median_us",
                median_us(samples, || {
                    black_box(run_once(&cfg, &graph, ProfilingLevel::ModelLayerGpu, 0));
                }),
            )],
        );
    }
}

fn bench_evaluation_engine(c: &mut Criterion) {
    // The engine speedup on one leveled experiment: 4×runs independent
    // points fanned out to workers vs executed inline. Same seeds, same
    // output (byte-identical) — only the wall time differs.
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(4);
    let mut g = c.benchmark_group("evaluation_engine");
    g.sample_size(10);
    for (label, par) in [
        ("serial", Parallelism::Serial),
        ("fixed4", Parallelism::Fixed(4)),
        ("auto", Parallelism::Auto),
    ] {
        let xsp = Xsp::new(
            XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
                .runs(2)
                .parallelism(par),
        );
        g.bench_function(format!("leveled_{label}"), |b| {
            b.iter(|| black_box(xsp.run(ProfileRequest::new(&graph))))
        });
    }
    // dispatch overhead of the pool itself on trivial work
    g.bench_function("parmap_dispatch_64_points", |b| {
        b.iter(|| {
            black_box(parmap(
                Parallelism::Fixed(4),
                (0..64u64).collect::<Vec<_>>(),
                |i, x| x.wrapping_mul(i as u64),
            ))
        })
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let samples: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
    c.bench_function("trimmed_mean_1000", |b| {
        b.iter(|| black_box(trimmed_mean(&samples, 0.1)))
    });
}

fn bench_graph_build(c: &mut Criterion) {
    c.bench_function("build_resnet50_graph", |b| {
        b.iter(|| black_box(zoo::by_name("MLPerf_ResNet50_v1.5").unwrap().graph(256)))
    });
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("XSP_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let json_path = json_artifact_path("micro_infrastructure", std::env::args());
    // The summary exists (and pays for its second measurement pass) only
    // when --json asked for the artifact.
    let mut summary = json_path
        .is_some()
        .then(|| BenchSummary::start("micro_infrastructure", quick));
    let mut criterion = Criterion::default().configure_from_args();
    if !quick {
        bench_interval_tree(&mut criterion);
    }
    bench_correlation_path(&mut criterion, summary.as_mut(), quick);
    bench_profiling_pipeline(&mut criterion, summary.as_mut(), quick);
    if !quick {
        bench_evaluation_engine(&mut criterion);
        bench_stats(&mut criterion);
        bench_graph_build(&mut criterion);
    }
    if let (Some(path), Some(summary)) = (json_path, summary) {
        summary.write(&path).expect("bench summary write");
    }
}
