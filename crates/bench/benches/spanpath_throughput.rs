//! Sustained span-path throughput: the tentpole benchmark for the
//! arena/SoA [`SpanStore`] and the `.xspb` binary interchange.
//!
//! Two families, each at 10k and 100k spans:
//!
//! * **spanpath** — publish → drain → correlate, the resident hot path.
//!   The `span` arm drains into a `Trace` (one owned [`Span`] per span,
//!   strings and all) and correlates it; the `store` arm drains straight
//!   into a [`SpanStore`] (columns + interned names) and runs the same
//!   correlation pass over its columns.
//! * **ingest** — parse → correlate from saved capture bytes, the offline
//!   path. The `jsonl` arm parses span-JSON-lines; the `xspb` arm streams
//!   the binary format directly into a store.
//!
//! `--quick` (or `XSP_BENCH_QUICK=1`) marks the CI smoke lane, and
//! `--json <path>` writes a machine-readable summary of sustained
//! spans/sec per arm. The run *fails* if `.xspb` ingest does not sustain
//! at least 5× the JSONL ingest rate at 100k spans — the interchange
//! format's reason to exist, enforced as a regression gate. Both lanes
//! time [`SAMPLES`] rounds per family, and each round runs both arms back
//! to back: the gate divides two medians, and when each arm took its
//! passes in one block, a slow spell of the host fell on one arm only and
//! the quotient swung from 4.4× to 11.9× across runs of one build on a
//! 2-vCPU host.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use xsp_bench::summary::{json_artifact_path, BenchSummary};
use xsp_trace::export::{SpanBinaryReader, SpanJsonLinesWriter};
use xsp_trace::span::tag_keys;
use xsp_trace::{
    CorrelationEngine, Span, SpanBuilder, SpanStore, StackLevel, TraceId, Tracer, TracingServer,
};

/// A synthetic correlated workload shaped like M/L/G runs: one model span
/// and 50 layers per run, async kernel launch/execution pairs filling the
/// rest — the same shape `micro_infrastructure` uses, scaled up.
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

fn jsonl_bytes(spans: &[Span]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = SpanJsonLinesWriter::new(&mut out);
    for span in spans {
        w.write_span(span).expect("Vec writes cannot fail");
    }
    w.finish().expect("Vec writes cannot fail");
    out
}

fn xspb_bytes(spans: &[Span]) -> Vec<u8> {
    xsp_trace::export::spans_to_binary(spans)
}

/// Rounds behind each spans/sec rate; a round times one pass of each arm.
const SAMPLES: usize = 15;

/// Median wall times in seconds of the two arms `a` and `b` over
/// [`SAMPLES`] rounds (one untimed warmup each) — the measurement behind
/// the spans/sec summary. Each round times `a` and then `b`, so a slow
/// spell of the host lands on both arms and their ratio holds steady.
fn median_secs(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    fn timed(body: &mut dyn FnMut()) -> f64 {
        let t = Instant::now();
        body();
        t.elapsed().as_secs_f64()
    }
    fn median(mut times: Vec<f64>) -> f64 {
        times.sort_by(f64::total_cmp);
        times[(times.len() - 1) / 2]
    }
    a();
    b();
    let (ta, tb): (Vec<f64>, Vec<f64>) =
        (0..SAMPLES).map(|_| (timed(&mut a), timed(&mut b))).unzip();
    (median(ta), median(tb))
}

/// The resident hot path: spans published through a buffer, drained, and
/// correlated — once into owned spans, once into the columnar store.
fn bench_spanpath(
    c: &mut Criterion,
    summary: &mut Option<BenchSummary>,
    rates: &mut Vec<(String, f64)>,
) {
    let mut g = c.benchmark_group("spanpath");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let spans = mk_run_spans(n, 8);

        let span_pass = || {
            let server = TracingServer::new();
            let buffer = server.buffer("bench");
            for s in &spans {
                buffer.report(s.clone());
            }
            buffer.flush();
            let trace = server.drain();
            black_box(CorrelationEngine::new().correlate(trace))
        };
        let store_pass = || {
            let server = TracingServer::new();
            let buffer = server.buffer("bench");
            for s in &spans {
                buffer.report(s.clone());
            }
            buffer.flush();
            let mut store = SpanStore::with_capacity(n);
            server.drain_each(|span| {
                store.push(&span);
            });
            black_box(CorrelationEngine::new().correlate_store(&store))
        };
        g.bench_with_input(BenchmarkId::new("span", n), &n, |b, _| b.iter(span_pass));
        g.bench_with_input(BenchmarkId::new("store", n), &n, |b, _| b.iter(store_pass));

        let (span_secs, store_secs) = median_secs(
            || {
                span_pass();
            },
            || {
                store_pass();
            },
        );
        for (label, secs) in [("span", span_secs), ("store", store_secs)] {
            let rate = n as f64 / secs;
            rates.push((format!("spanpath/{label}/{n}"), rate));
            if let Some(summary) = summary.as_mut() {
                summary.point(format!("spanpath/{label}/{n}"), &[("spans_per_sec", rate)]);
            }
        }
    }
    g.finish();
}

/// The offline path: capture bytes parsed and correlated — JSONL through
/// owned spans vs `.xspb` streamed straight into a store.
fn bench_ingest(
    c: &mut Criterion,
    summary: &mut Option<BenchSummary>,
    rates: &mut Vec<(String, f64)>,
) {
    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let spans = mk_run_spans(n, 8);
        let jsonl = jsonl_bytes(&spans);
        let xspb = xspb_bytes(&spans);

        let jsonl_pass = || {
            let trace =
                xsp_trace::export::read_span_json_lines(&jsonl[..]).expect("own JSONL parses");
            black_box(CorrelationEngine::new().correlate(trace))
        };
        let xspb_pass = || {
            let mut store = SpanStore::with_capacity(n);
            SpanBinaryReader::new(&xspb[..])
                .read_into_store(&mut store)
                .expect("own encoding parses");
            black_box(CorrelationEngine::new().correlate_store(&store))
        };
        g.bench_with_input(BenchmarkId::new("jsonl", n), &n, |b, _| b.iter(jsonl_pass));
        g.bench_with_input(BenchmarkId::new("xspb", n), &n, |b, _| b.iter(xspb_pass));

        let (jsonl_secs, xspb_secs) = median_secs(
            || {
                jsonl_pass();
            },
            || {
                xspb_pass();
            },
        );
        for (label, secs) in [("jsonl", jsonl_secs), ("xspb", xspb_secs)] {
            let rate = n as f64 / secs;
            rates.push((format!("ingest/{label}/{n}"), rate));
            if let Some(summary) = summary.as_mut() {
                summary.point(format!("ingest/{label}/{n}"), &[("spans_per_sec", rate)]);
            }
        }
    }
    g.finish();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("XSP_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let json_path = json_artifact_path("spanpath_throughput", std::env::args());
    let mut summary = json_path
        .is_some()
        .then(|| BenchSummary::start("spanpath_throughput", quick));
    let mut criterion = Criterion::default().configure_from_args();
    let mut rates: Vec<(String, f64)> = Vec::new();
    bench_spanpath(&mut criterion, &mut summary, &mut rates);
    bench_ingest(&mut criterion, &mut summary, &mut rates);

    println!("\nsustained span-path throughput (median):");
    for (id, rate) in &rates {
        println!("  {id:<28} {:>12.0} spans/sec", rate);
    }
    let rate_of = |id: &str| {
        rates
            .iter()
            .find(|(name, _)| name == id)
            .map(|(_, r)| *r)
            .expect("arm measured")
    };
    let ingest_ratio = rate_of("ingest/xspb/100000") / rate_of("ingest/jsonl/100000");
    let path_ratio = rate_of("spanpath/store/100000") / rate_of("spanpath/span/100000");
    println!("  ingest speedup @100k (xspb/jsonl):   {ingest_ratio:.1}x");
    println!("  spanpath speedup @100k (store/span): {path_ratio:.1}x");
    if let Some(summary) = summary.as_mut() {
        summary.point(
            "speedup/100000",
            &[
                ("ingest_xspb_over_jsonl", ingest_ratio),
                ("spanpath_store_over_span", path_ratio),
            ],
        );
    }
    // The regression gate: the binary interchange must hold its
    // order-of-magnitude class win over JSONL at the 100k scale.
    assert!(
        ingest_ratio >= 5.0,
        ".xspb ingest sustained only {ingest_ratio:.1}x the JSONL rate at 100k spans (gate: 5x)"
    );
    if let (Some(path), Some(summary)) = (json_path, summary) {
        summary.write(&path).expect("bench summary write");
    }
}
