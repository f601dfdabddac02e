//! Transformer-tier integration: the GEMM-bound models flow through every
//! pipeline level coherently, obey the parallel engine's byte-identity
//! contract across a (seq-len, batch, model) grid, and land their attention
//! GEMMs in a different roofline regime than the conv-bound baseline.

use proptest::prelude::*;
use proptest::sample::select;
use xsp_core::analysis::{
    ax3_compute_regime, ax3_gemm_roofline, gemm_latency_percent, kernel_family, ComputeRegime,
    KernelFamily,
};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_framework::{FrameworkKind, LayerGraph};
use xsp_gpu::systems;
use xsp_models::{transformer, zoo};
use xsp_trace::StackLevel;

fn build(model: &str, batch: usize, seq: usize) -> LayerGraph {
    match model {
        "bert_base" => transformer::bert_base(batch, seq),
        "bert_large" => transformer::bert_large(batch, seq),
        "gpt2_small" => transformer::gpt2_small(batch, seq),
        other => panic!("unknown transformer family {other}"),
    }
}

fn xsp_with(seed: u64, runs: usize, parallelism: Parallelism) -> Xsp {
    Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(runs)
            .seed(seed)
            .parallelism(parallelism),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism over the transformer grid: leveled profiles of any
    /// (seq, batch, model) point serialize byte-identically under `Serial`
    /// and `Fixed(4)` — the same contract `integration_parallel.rs` pins
    /// for the CNN zoo.
    #[test]
    fn leveled_fixed4_matches_serial_bytes(
        seed in 0u64..u64::MAX,
        seq in select(vec![64usize, 128, 256]),
        batch in 1usize..3,
        model in select(vec!["bert_base", "gpt2_small"]),
    ) {
        let graph = build(model, batch, seq);
        let serial = xsp_with(seed, 1, Parallelism::Serial).run(ProfileRequest::new(&graph));
        let parallel = xsp_with(seed, 1, Parallelism::Fixed(4)).run(ProfileRequest::new(&graph));
        prop_assert_eq!(serial.to_span_json(), parallel.to_span_json());
    }

    /// Leveled profiles are coherent at every stack level across the grid:
    /// each level's runs exist, layer spans cover the whole attention
    /// chain, kernel spans carry the GEMM families, and the derived
    /// summaries are self-consistent.
    #[test]
    fn leveled_profiles_are_coherent_across_grid(
        seq in select(vec![64usize, 128]),
        batch in 1usize..3,
        model in select(vec!["bert_base", "gpt2_small"]),
    ) {
        let graph = build(model, batch, seq);
        let p = xsp_with(7, 1, Parallelism::Serial).run(ProfileRequest::new(&graph));
        prop_assert_eq!(p.m_runs.len(), 1);
        prop_assert_eq!(p.ml_runs.len(), 1);
        prop_assert_eq!(p.mlg_runs.len(), 1);
        prop_assert_eq!(p.metric_runs.len(), 1);
        prop_assert_eq!(p.batch, batch);
        prop_assert!(p.model_latency_ms() > 0.0);

        // the layer level sees the full attention chain, block for block
        let layers = p.layers();
        let qkv = layers.iter().filter(|l| l.type_name == "QkvMatMul").count();
        let scores = layers.iter().filter(|l| l.type_name == "BatchMatMulQK").count();
        let softmax = layers.iter().filter(|l| l.type_name == "AttentionSoftmax").count();
        prop_assert!(qkv > 0);
        prop_assert_eq!(qkv, scores);
        prop_assert_eq!(qkv, softmax);

        // the kernel level sees GEMM-family kernels with metrics attached
        let kernels = p.kernels();
        prop_assert!(!kernels.is_empty());
        let gemm_kernels = kernels
            .iter()
            .filter(|k| kernel_family(&k.name) == KernelFamily::Gemm)
            .count();
        prop_assert!(gemm_kernels > 0);
        prop_assert!(kernels.iter().any(|k| k.flops.unwrap_or(0) > 0));

        // overheads accumulate monotonically through the levels (§III-C)
        let o = p.overhead_report();
        prop_assert!(o.model_ms < o.model_layer_ms);
        prop_assert!(o.model_layer_ms < o.model_layer_gpu_ms);

        // spans exist at model, layer, and kernel stack levels
        let spans = p.all_spans();
        for level in [StackLevel::Model, StackLevel::Layer, StackLevel::Kernel] {
            prop_assert!(
                spans.iter().any(|s| s.level == level),
                "no span at {level:?}"
            );
        }
    }
}

/// The acceptance regime split: at short sequence lengths the batched
/// attention GEMMs are memory-bound on V100 while a conv baseline's
/// convolution kernels are compute-bound — two genuinely different roofline
/// regimes flowing through the identical pipeline.
#[test]
fn attention_gemms_occupy_a_different_regime_than_conv() {
    let system = systems::tesla_v100();
    let xsp = xsp_with(7, 1, Parallelism::Serial);

    let bert = xsp.run(ProfileRequest::new(&transformer::bert_base(1, 128)));
    assert_eq!(ax3_compute_regime(&bert), ComputeRegime::GemmBound);
    let attention_points: Vec<_> = ax3_gemm_roofline(&bert, &system)
        .into_iter()
        .filter(|p| p.name.contains("batched"))
        .collect();
    assert!(!attention_points.is_empty());
    assert!(
        attention_points.iter().all(|p| p.memory_bound),
        "seq-128 batched attention GEMMs sit under the ridge"
    );

    // batch 64: past the batch-16/32 memory-bound dip cuDNN's algorithm
    // switch causes (Figure 10), so conv kernels sit in their steady
    // compute-bound regime
    let resnet = xsp.run(ProfileRequest::new(
        &zoo::by_name("ResNet_v1_50").unwrap().graph(64),
    ));
    assert_eq!(ax3_compute_regime(&resnet), ComputeRegime::ConvBound);
    let conv_points: Vec<_> = xsp_core::analysis::a9_kernel_roofline(&resnet, &system)
        .into_iter()
        .filter(|p| kernel_family(&p.name) == KernelFamily::Convolution)
        .collect();
    assert!(!conv_points.is_empty());
    let compute_bound = conv_points.iter().filter(|p| !p.memory_bound).count();
    assert!(
        compute_bound * 10 > conv_points.len() * 9,
        "conv kernels are compute-bound: {compute_bound}/{}",
        conv_points.len()
    );

    // and the intensity distributions barely overlap: every batched
    // attention GEMM is leaner than the median conv kernel
    let mut conv_ai: Vec<f64> = conv_points.iter().map(|p| p.arithmetic_intensity).collect();
    conv_ai.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let conv_median = conv_ai[conv_ai.len() / 2];
    assert!(attention_points
        .iter()
        .all(|p| p.arithmetic_intensity < conv_median));
}

/// The zoo-registered LM entries drive the same end-to-end path the CNN
/// entries do: model-level latency, per-level spans, GEMM-bound share.
#[test]
fn zoo_language_models_profile_end_to_end() {
    let xsp = xsp_with(7, 1, Parallelism::Serial);
    for m in zoo::language_models() {
        let p = xsp.run(ProfileRequest::new(&m.graph(1)));
        assert!(p.model_latency_ms() > 1.0, "{}", m.name);
        assert!(
            gemm_latency_percent(&p) > 50.0,
            "{}: GEMM share {:.1}%",
            m.name,
            gemm_latency_percent(&p)
        );
        assert!(!p.layers().is_empty(), "{}", m.name);
        assert!(!p.kernels().is_empty(), "{}", m.name);
        assert!(p.predict_ms_at(ProfilingLevel::ModelLayer) > p.model_latency_ms());
    }
}

/// Throughput scales with batch and latency scales with seq — the model
/// family is parameterized on both axes.
#[test]
fn latency_scales_with_seq_and_batch() {
    let xsp = xsp_with(7, 1, Parallelism::Serial);
    let ms = |b: usize, s: usize| {
        xsp.run(ProfileRequest::new(&transformer::bert_base(b, s)).level(ProfilingLevel::Model))
            .model_latency_ms()
    };
    let short = ms(1, 64);
    let long = ms(1, 256);
    assert!(long > short * 1.5, "seq 64 {short} vs seq 256 {long}");
    let b1 = ms(1, 128);
    let b8 = ms(8, 128);
    assert!(b8 > b1, "batch 1 {b1} vs batch 8 {b8}");
    // batching amortizes heavily (the GEMM n grows 8x while dispatch cost
    // stays flat): per-input cost must fall well below online latency
    assert!(b8 / 8.0 < b1 / 2.0, "batching must improve throughput");
}

/// Folded-stack export of a transformer trace: every attention kernel
/// shows up as a leaf frame under its attention layer, weighted by
/// self-time, and the per-run streamed output matches the whole-trace
/// string exporter byte for byte.
#[test]
fn folded_stacks_expose_attention_kernels_with_self_time() {
    use xsp_trace::export::{to_folded_stacks, FoldedStacksWriter};

    let xsp = xsp_with(7, 1, Parallelism::Serial);
    let profile = xsp.run(ProfileRequest::new(&transformer::bert_base(1, 64)));
    let run = &profile.mlg_runs[0];

    let folded = to_folded_stacks(&run.trace);
    let mut writer = FoldedStacksWriter::new(Vec::new());
    writer.write_run(&run.trace).unwrap();
    let streamed = String::from_utf8(writer.finish().unwrap()).unwrap();
    assert_eq!(folded, streamed, "wrapper must match the streaming writer");

    // Parse `stack;frames weight` lines.
    let lines: Vec<(Vec<&str>, u64)> = folded
        .lines()
        .map(|l| {
            let (stack, w) = l.rsplit_once(' ').expect("`stack weight` shape");
            (stack.split(';').collect(), w.parse().expect("weight"))
        })
        .collect();
    assert!(
        lines.len() > 100,
        "BERT trace folds to {} lines",
        lines.len()
    );

    // Attention-score GEMM kernels appear as kernel frames whose parent
    // frame is the attention layer that launched them.
    let attn_kernel_lines: Vec<&(Vec<&str>, u64)> = lines
        .iter()
        .filter(|(stack, _)| {
            let leaf = stack.last().unwrap();
            leaf.contains("sgemm") && leaf.contains("batched")
        })
        .collect();
    assert!(
        !attn_kernel_lines.is_empty(),
        "batched attention GEMMs must fold as frames"
    );
    for (stack, weight) in &attn_kernel_lines {
        assert!(*weight >= 1, "leaf self-time is at least 1 µs");
        assert!(
            stack.len() >= 3,
            "kernel frames sit below model and layer: {stack:?}"
        );
        let layer_frame = stack[stack.len() - 2];
        assert!(
            layer_frame.contains("attention"),
            "attention kernel under non-attention frame {layer_frame}"
        );
    }

    // Self-time accounting: every stack's weight is bounded by the root
    // span's duration, and the model root itself folds with self-time.
    let model_total_us = run.phases().predict_ms * 1e3
        + run.phases().preprocess_ms * 1e3
        + run.phases().postprocess_ms * 1e3;
    let folded_total_us: u64 = lines.iter().map(|(_, w)| w).sum();
    assert!(
        (folded_total_us as f64) <= model_total_us * 1.05,
        "folded self-times ({folded_total_us} µs) cannot exceed the run ({model_total_us} µs)"
    );
    assert!(lines.iter().any(|(s, _)| s == &vec!["model_prediction"]));
}
