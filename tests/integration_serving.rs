//! Integration tests of the inference-serving tier: the continuous-batching
//! scheduler's determinism contract (identical reports and byte-identical
//! streamed span traces for any worker count and across replays), and the
//! re-correlation idempotence of the runs a serving step streams.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};

use xsp_core::export::ExportSink;
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_core::serving::{simulate, simulate_streaming, ArrivalTrace, ServingConfig, ServingModel};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::transformer::{self, DecodeAttention};
use xsp_trace::export::to_chrome_trace_of;
use xsp_trace::{CorrelationEngine, Span, Trace, TraceId};

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

/// Re-correlating a correlated run changes nothing: the idempotence a
/// streamed serving step relies on when it correlates its memoized run
/// again. Checked on GPT-2 decode steps over both attention paths and on
/// one prefill, at M, M/L and M/L/G.
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
            assert_eq!(again.len(), run.len(), "{label} at {level}: span count");
            for (a, b) in again.spans().iter().zip(run.spans()) {
                assert_eq!(a.span, b.span, "{label} at {level}: span");
                assert_eq!(a.parent, b.parent, "{label} at {level}: parent");
            }
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
