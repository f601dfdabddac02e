//! Golden-span snapshot: one frozen span-JSON trace, asserted byte-for-byte,
//! so span-schema drift (field renames, tag changes, ordering changes, id
//! allocation changes) is caught by CI instead of by downstream consumers of
//! exported traces.
//!
//! The snapshot profiles BERT-Base at batch 1 (sequence length 64 keeps the
//! file reviewable; the span *count* and schema are depth-driven, not
//! seq-driven) in `ProfileMode::ModelAndMetrics`: one model-level run plus one
//! full-depth metric run, which together emit every span schema the
//! pipeline produces — model phases, layer spans, kernel launch/execution
//! spans with metric tags — at a third of the bytes of all four levels.
//! Every run is seed-deterministic and span ids come from per-run scopes,
//! so the bytes are stable across machines and `XSP_THREADS` settings.
//!
//! To regenerate after an *intentional* schema change:
//! `XSP_BLESS=1 cargo test --test golden_spans` — then review the diff.

use xsp_core::profile::{ProfileMode, ProfileRequest, Xsp, XspConfig};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::{transformer, GraphBuilder};

const GOLDEN_PATH: &str = "tests/golden/bert_base_b1_seq64_spans.json";
const SMALL_CNN_GOLDEN_PATH: &str = "tests/golden/small_cnn_library_host_spans.json";

fn current_span_json() -> String {
    let xsp = Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .seed(0x5E_ED),
    );
    xsp.run(ProfileRequest::new(&transformer::bert_base(1, 64)).mode(ProfileMode::ModelAndMetrics))
        .to_span_json()
}

/// A small conv net profiled with the library and host tracers on, under
/// both framework personalities: TensorFlow's batch-norm rewrite and
/// MXNet's fused batch norm, the cuDNN/cuBLAS API spans and the host
/// dispatch spans — the paths the BERT snapshot does not reach. One
/// model-level run plus one metric run per framework, TensorFlow first,
/// one line each.
fn small_cnn_span_json() -> String {
    let mut builder = GraphBuilder::new(1, 3, 32, 32);
    builder.conv_bn_relu(16, 3, 1, 1).maxpool(2, 2);
    builder.fc(10).softmax();
    let graph = builder.finish();
    [FrameworkKind::TensorFlow, FrameworkKind::MXNet]
        .into_iter()
        .map(|framework| {
            let xsp = Xsp::new(
                XspConfig::new(systems::tesla_v100(), framework)
                    .runs(1)
                    .library_level(true)
                    .host_level(true),
            );
            let profile = xsp.run(ProfileRequest::new(&graph).mode(ProfileMode::ModelAndMetrics));
            profile.to_span_json() + "\n"
        })
        .collect()
}

/// Compares `current` with the golden at `rel_path`, or rewrites the
/// golden under `XSP_BLESS`.
fn assert_matches_golden(current: &str, rel_path: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    if std::env::var("XSP_BLESS").is_ok() {
        std::fs::write(&path, current).expect("write golden");
        eprintln!("blessed {} ({} bytes)", path.display(), current.len());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        golden == current,
        "span JSON drifted from the frozen snapshot ({} vs {} bytes).\n\
         If the schema change is intentional, regenerate with \
         `XSP_BLESS=1 cargo test --test golden_spans` and review the diff.",
        golden.len(),
        current.len()
    );
}

#[test]
fn bert_base_span_json_matches_golden() {
    assert_matches_golden(&current_span_json(), GOLDEN_PATH);
}

#[test]
fn small_cnn_library_host_span_json_matches_golden() {
    assert_matches_golden(&small_cnn_span_json(), SMALL_CNN_GOLDEN_PATH);
}

#[test]
fn golden_trace_still_deserializes() {
    // The frozen bytes must remain loadable through the offline-analysis
    // path, not just byte-comparable.
    if std::env::var("XSP_BLESS").is_ok() {
        // The bless test rewrites the file concurrently in this same
        // binary; reading it mid-truncate would fail spuriously. The next
        // plain `cargo test` run exercises this path against the fresh
        // snapshot.
        eprintln!("skipping deserialization check during bless");
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let golden = std::fs::read_to_string(&path).expect("golden present");
    let trace = xsp_trace::export::from_span_json(&golden).expect("golden parses");
    assert!(
        trace.len() > 500,
        "leveled BERT trace has {} spans",
        trace.len()
    );
    // spot-check schema anchors downstream consumers rely on
    let spans = trace.spans();
    assert!(spans.iter().any(|s| s.name == "model_prediction"
        || s.name.contains("predict")
        || s.level == xsp_trace::StackLevel::Model));
    assert!(spans
        .iter()
        .any(|s| s.name.contains("attention/self/qkv/MatMul")));
    assert!(spans.iter().any(|s| s.name.contains("sgemm")));
}
