//! Integration tests of the inference-serving tier: the continuous-batching
//! scheduler's determinism contract (identical reports and byte-identical
//! streamed span traces for any worker count and across replays), the
//! re-correlation idempotence of the runs a serving step streams, and the
//! per-step re-correlating path kept as the reference the streamed bytes
//! must reproduce.

use proptest::prelude::*;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use xsp_core::export::{export_correlated, ExportFormat, ExportSink};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_core::serving::{
    simulate, simulate_streaming, ArrivalTrace, ServingConfig, ServingModel, ServingReport,
    StepKind,
};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::transformer::{self, DecodeAttention};
use xsp_trace::export::{read_span_json_lines, to_chrome_trace_of};
use xsp_trace::{CorrelatedTrace, CorrelationEngine, Span, Trace, TraceId};

fn xsp(parallelism: Parallelism) -> Xsp {
    Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .parallelism(parallelism),
    )
}

/// Captures a streamed serving trace as bytes.
fn streamed_trace(parallelism: Parallelism, trace: &ArrivalTrace, cfg: &ServingConfig) -> Vec<u8> {
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Arc::new(Mutex::new(Vec::new()));
    let sink = ExportSink::new(Shared(buf.clone()));
    simulate_streaming(
        &xsp(parallelism),
        ServingModel::Gpt2Small,
        trace,
        cfg,
        Some(&sink),
    );
    sink.finish().unwrap();
    let bytes = buf.lock().unwrap().clone();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The scheduler is deterministic in the worker count: the same arrival
    /// trace yields identical step sequences, request lifecycles, and
    /// byte-identical streamed span JSONL under Serial and Fixed(4) — the
    /// CI matrix's XSP_THREADS=1/XSP_THREADS=4 lanes.
    #[test]
    fn serving_is_thread_count_and_replay_deterministic(
        seed in 0u64..1_000,
        n in 2usize..7,
        rate in 20.0f64..120.0,
        max_batch in 2usize..5,
    ) {
        let trace = ArrivalTrace::synthetic(seed, n, rate, (8, 40), (2, 10));
        let cfg = ServingConfig::default()
            .max_batch(max_batch)
            .level(ProfilingLevel::Model);
        let serial = simulate(&xsp(Parallelism::Serial), ServingModel::Gpt2Small, &trace, &cfg);
        let fixed = simulate(&xsp(Parallelism::Fixed(4)), ServingModel::Gpt2Small, &trace, &cfg);
        prop_assert_eq!(&serial.steps, &fixed.steps);
        prop_assert_eq!(&serial.requests, &fixed.requests);
        prop_assert_eq!(serial.tokens_emitted, fixed.tokens_emitted);

        // Replaying the same trace is bitwise-stable, and so is the
        // streamed span export across worker counts and replays.
        let stream_cfg = cfg.level(ProfilingLevel::ModelLayer);
        let a = streamed_trace(Parallelism::Serial, &trace, &stream_cfg);
        let b = streamed_trace(Parallelism::Fixed(4), &trace, &stream_cfg);
        let c = streamed_trace(Parallelism::Serial, &trace, &stream_cfg);
        prop_assert!(!a.is_empty());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}

#[test]
fn streamed_trace_carries_one_run_per_step() {
    let trace = ArrivalTrace::synthetic(3, 4, 60.0, (8, 24), (2, 6));
    let cfg = ServingConfig::default()
        .max_batch(2)
        .level(ProfilingLevel::ModelLayer);
    let report = simulate(
        &xsp(Parallelism::Serial),
        ServingModel::Gpt2Small,
        &trace,
        &cfg,
    );
    let bytes = streamed_trace(Parallelism::Serial, &trace, &cfg);
    let parsed = xsp_trace::export::read_span_json_lines(&bytes[..]).unwrap();
    // every step became its own run in the stream, trace ids 1..=steps
    let ids = parsed.trace_ids();
    assert_eq!(ids.len(), report.steps.len());
    let max_id = ids.iter().map(|t| t.0).max().unwrap();
    assert_eq!(max_id, report.steps.len() as u64);
    // spans carry the virtual-clock offset of their step: the stream's
    // earliest span of run k starts at step k-1's start time
    for step in &report.steps {
        let tid = TraceId(step.index as u64 + 1);
        let start = parsed
            .spans()
            .iter()
            .filter(|s| s.trace_id == tid)
            .map(|s| s.start_ns)
            .min()
            .unwrap();
        let expected = (step.start_ms * 1_000_000.0).round() as u64;
        assert_eq!(start, expected, "step {} offset", step.index);
    }
}

/// Re-correlating a correlated run changes nothing: the idempotence that
/// lets a serving step write its memoized run without correlating it again.
/// Checked on GPT-2 decode steps over both attention paths and on one
/// prefill, at M, M/L and M/L/G.
#[test]
fn recorrelating_a_serving_run_reproduces_its_bytes() {
    let graphs = [
        (
            "decode/materialized",
            transformer::gpt2_decode_step(2, 64, DecodeAttention::Materialized),
        ),
        (
            "decode/fused",
            transformer::gpt2_decode_step(2, 64, DecodeAttention::Fused),
        ),
        ("prefill", transformer::gpt2_small(1, 32)),
    ];
    for (label, graph) in &graphs {
        let profile = xsp(Parallelism::Serial)
            .run(ProfileRequest::new(graph).level(ProfilingLevel::ModelLayerGpu));
        for (level, runs) in [
            ("M", &profile.m_runs),
            ("M/L", &profile.ml_runs),
            ("M/L/G", &profile.mlg_runs),
        ] {
            let run = &runs[0].trace;
            let spans: Vec<Span> = run.iter_spans().cloned().collect();
            let again = CorrelationEngine::new().correlate(Trace::from_spans(spans));
            assert_eq!(again.spans(), run.spans(), "{label} at {level}: spans");
            assert_eq!(
                to_chrome_trace_of(again.iter_spans()),
                to_chrome_trace_of(run.iter_spans()),
                "{label} at {level}: re-correlation changed the Chrome bytes"
            );
        }
    }
}

#[test]
fn fused_attention_reduces_decode_step_latency() {
    let trace = ArrivalTrace::synthetic(9, 4, 80.0, (32, 64), (4, 8));
    let base_cfg = ServingConfig::default()
        .max_batch(4)
        .level(ProfilingLevel::Model);
    let materialized = simulate(
        &xsp(Parallelism::Serial),
        ServingModel::Gpt2Small,
        &trace,
        &base_cfg,
    );
    let fused = simulate(
        &xsp(Parallelism::Serial),
        ServingModel::Gpt2Small,
        &trace,
        &base_cfg.attention(DecodeAttention::Fused),
    );
    // the fused kernel's counterfactual: fewer launches and no score-row
    // round trip, so the same workload finishes sooner
    assert!(
        fused.decode_ms() < materialized.decode_ms(),
        "fused {} ms vs materialized {} ms",
        fused.decode_ms(),
        materialized.decode_ms()
    );
    assert_eq!(fused.tokens_emitted, materialized.tokens_emitted);
}

#[test]
fn serving_models_cover_the_transformer_tier() {
    for (id, model) in [
        (56u32, ServingModel::BertBase),
        (57, ServingModel::BertLarge),
        (58, ServingModel::Gpt2Small),
    ] {
        assert_eq!(ServingModel::from_zoo_id(id), Some(model));
        assert_eq!(
            xsp_models::zoo::by_id(id).map(|m| m.name),
            Some(model.label())
        );
    }
    assert_eq!(ServingModel::from_zoo_id(1), None);
}

/// Streams one simulation into the sink `xsp analyze --trace` opens for a
/// file of `format`, and returns the file's bytes.
fn stream_as(
    xsp: &Xsp,
    trace: &ArrivalTrace,
    cfg: &ServingConfig,
    format: ExportFormat,
) -> Vec<u8> {
    let ext = match format {
        ExportFormat::Spans => "jsonl",
        ExportFormat::Binary => "xspb",
        ExportFormat::Chrome => "json",
        ExportFormat::Folded => "folded",
    };
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    let path = std::env::temp_dir().join(format!("xsp_serving_{}_{seq}.{ext}", std::process::id()));
    let sink = ExportSink::create(&path).unwrap();
    simulate_streaming(xsp, ServingModel::Gpt2Small, trace, cfg, Some(&sink));
    sink.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

static SEQ: AtomicUsize = AtomicUsize::new(0);

/// The per-step path the stream took before it wrote memoized runs as they
/// are: each step's run cloned, re-stamped with the step's trace id and
/// start time, and correlated again on its own.
fn recorrelated_steps(
    xsp: &Xsp,
    report: &ServingReport,
    cfg: &ServingConfig,
) -> Vec<CorrelatedTrace> {
    let mut engine = CorrelationEngine::new();
    let mut steps = Vec::new();
    for step in &report.steps {
        let graph = match step.kind {
            StepKind::Prefill { prompt_tokens, .. } => transformer::gpt2_small(1, prompt_tokens),
            StepKind::Decode {
                batch,
                attend_tokens,
                ..
            } => transformer::gpt2_decode_step(batch, attend_tokens, cfg.attention),
        };
        let profile = xsp.run_shared(ProfileRequest::new(&graph).level(cfg.level));
        let run = match cfg.level {
            ProfilingLevel::Model => &profile.m_runs[0].trace,
            ProfilingLevel::ModelLayer => &profile.ml_runs[0].trace,
            ProfilingLevel::ModelLayerGpu => &profile.mlg_runs[0].trace,
        };
        let base_ns = run.iter_spans().map(|s| s.start_ns).min().unwrap();
        let offset_ns = (step.start_ms * 1_000_000.0).round() as u64;
        let restamped = run.iter_spans().map(|s| Span {
            trace_id: TraceId(step.index as u64 + 1),
            start_ns: s.start_ns - base_ns + offset_ns,
            end_ns: s.end_ns - base_ns + offset_ns,
            ..s.clone()
        });
        steps.push(engine.correlate(Trace::from_spans(restamped.collect())));
    }
    steps
}

/// Writes the re-correlated steps as one stream: span formats write every
/// step's spans in order inside one envelope, and folded stacks, which have
/// none, are each step's stacks in turn.
fn write_steps(steps: &[CorrelatedTrace], format: ExportFormat) -> Vec<u8> {
    let mut out = Vec::new();
    if format == ExportFormat::Folded {
        for step in steps {
            export_correlated(step, format, &mut out).unwrap();
        }
    } else {
        let spans = steps
            .iter()
            .flat_map(|s| s.spans().iter().cloned())
            .collect();
        export_correlated(
            &CorrelatedTrace::new(spans, Default::default()),
            format,
            &mut out,
        )
        .unwrap();
    }
    out
}

/// Streaming a memoized run under a per-step trace id and time shift writes
/// exactly what re-correlating each re-stamped step writes: every sink
/// format, at M, M/L and M/L/G, over prefill and decode steps on both
/// attention paths.
#[test]
fn streamed_steps_match_recorrelating_each_step() {
    let config = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow);
    let xsp = Xsp::new(config.runs(1).cached(true));
    let trace = ArrivalTrace::synthetic(11, 3, 60.0, (8, 24), (2, 4));
    for level in [
        ProfilingLevel::Model,
        ProfilingLevel::ModelLayer,
        ProfilingLevel::ModelLayerGpu,
    ] {
        for attention in [DecodeAttention::Materialized, DecodeAttention::Fused] {
            let cfg = ServingConfig::default()
                .max_batch(2)
                .level(level)
                .attention(attention);
            let report = simulate(&xsp, ServingModel::Gpt2Small, &trace, &cfg);
            let prefills = report
                .steps
                .iter()
                .filter(|s| matches!(s.kind, StepKind::Prefill { .. }))
                .count();
            assert!(prefills > 0 && prefills < report.steps.len());
            let steps = recorrelated_steps(&xsp, &report, &cfg);
            for format in ExportFormat::ALL {
                assert!(
                    stream_as(&xsp, &trace, &cfg, format) == write_steps(&steps, format),
                    "{level:?}/{attention:?}/{format}: streamed bytes differ"
                );
            }
        }
    }
}

/// A writer that fails past a byte cap, so a conversion that multiplies
/// its output stops early.
struct Capped(Vec<u8>, usize);

impl Write for Capped {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.0.len() + buf.len() > self.1 {
            return Err(io::Error::other("output cap exceeded"));
        }
        self.0.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Every serving step repeats its memoized run's span ids under its own
/// trace id. Converting the streamed JSONL offline (`xsp export --from`)
/// walks each step's tree in its own run, so every format, folded
/// included, equals the trace written live.
#[test]
fn offline_conversion_of_a_serving_trace_equals_the_live_trace() {
    let xsp = xsp(Parallelism::Serial);
    let trace = ArrivalTrace::synthetic(5, 3, 60.0, (8, 16), (2, 4));
    let cfg = ServingConfig::default()
        .max_batch(2)
        .level(ProfilingLevel::ModelLayer);
    let jsonl = stream_as(&xsp, &trace, &cfg, ExportFormat::Spans);
    let correlated = CorrelationEngine::new().correlate(read_span_json_lines(&jsonl[..]).unwrap());
    for format in ExportFormat::ALL {
        let live = stream_as(&xsp, &trace, &cfg, format);
        let mut out = Capped(Vec::new(), 2 * live.len());
        export_correlated(&correlated, format, &mut out).expect("within twice the live size");
        assert!(
            out.0 == live,
            "{format}: the conversion differs from the live trace"
        );
    }
}
