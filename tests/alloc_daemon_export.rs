//! A daemon session keeps its spans in its store from the wire to the
//! export: a batch body is parsed straight into the store's columns, and an
//! export writes the store rows in place. So neither an append of known
//! strings nor a repeat export allocates per span: at 1,024 and at 4,096
//! spans they allocate equally often.
//!
//! This file is a test binary of its own with a single test, so the
//! counting allocator below sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use xsp_core::export::ExportFormat;
use xsp_daemon::client::{spans_to_binary, spans_to_jsonl};
use xsp_daemon::{OnFull, Session, DEFAULT_QUOTA};
use xsp_trace::span::tag_keys;
use xsp_trace::{Span, SpanBuilder, StackLevel, TraceId};

/// Counts every allocation of every thread; a `realloc` counts as one.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes, its result's drop included, on every thread.
fn allocs_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    black_box(f());
    ALLOCS.load(Ordering::SeqCst) - before
}

/// `n` spans of two runs, each a model span with layers and kernels under
/// it, over a fixed set of names and string values: a larger capture
/// repeats the same strings more often.
fn capture(n: usize) -> Vec<Span> {
    const LAYERS: [&str; 4] = ["conv2d/Conv2D", "relu/Relu", "pool/MaxPool", "fc/MatMul"];
    const KERNELS: [&str; 3] = ["volta_sgemm_128x64_nn", "relu_kernel", "pool_kernel"];
    let mut spans = Vec::with_capacity(n);
    let per_run = n / 2;
    for run in 1..=2u64 {
        let trace_id = TraceId(run);
        let model = SpanBuilder::new("model_prediction", StackLevel::Model, trace_id)
            .start(0)
            .tag(tag_keys::BATCH_SIZE, 4u64)
            .finish(per_run as u64 * 1_000);
        let model_id = model.id;
        spans.push(model);
        let mut layer_id = model_id;
        for i in 1..per_run {
            let at = i as u64 * 1_000;
            let span = if i % 4 == 1 {
                let layer = SpanBuilder::new(LAYERS[i / 4 % 4], StackLevel::Layer, trace_id)
                    .start(at)
                    .parent(model_id)
                    .tag(tag_keys::LAYER_INDEX, (i / 4) as u64)
                    .tag(tag_keys::LAYER_TYPE, LAYERS[i / 4 % 4])
                    .finish(at + 3_900);
                layer_id = layer.id;
                layer
            } else {
                SpanBuilder::new(KERNELS[i % 3], StackLevel::Kernel, trace_id)
                    .start(at)
                    .parent(layer_id)
                    .tag(tag_keys::GRID, "[1,1,1]")
                    .tag("occupancy", 0.5f64)
                    .finish(at + 900)
            };
            spans.push(span);
        }
    }
    spans
}

/// The allocations of a second append of `body` to a session that holds
/// it once already: what ingesting known strings costs.
fn second_append(body: &[u8]) -> u64 {
    let mut session = Session::new(1, DEFAULT_QUOTA, OnFull::Shed, None);
    session.append_bytes(body).expect("the batch parses");
    allocs_of(|| session.append_bytes(body).expect("the batch parses"))
}

/// The allocations of a repeat export of an unchanged session.
fn repeat_export(spans: &[Span], format: ExportFormat) -> u64 {
    let mut session = Session::new(1, DEFAULT_QUOTA, OnFull::Shed, None);
    session
        .append_bytes(&spans_to_binary(spans))
        .expect("the batch parses");
    session.export_bytes(format);
    allocs_of(|| session.export_bytes(format))
}

#[test]
fn appends_and_repeat_exports_allocate_independently_of_span_count() {
    let (small, large) = (capture(1_024), capture(4_096));
    for (encoding, encode) in [
        ("span JSONL", spans_to_jsonl as fn(&[Span]) -> Vec<u8>),
        (".xspb", spans_to_binary),
    ] {
        let (a, b) = (
            second_append(&encode(&small)),
            second_append(&encode(&large)),
        );
        assert_eq!(
            a, b,
            "{encoding}: appending 1,024 spans allocated {a} times, 4,096 spans {b} times"
        );
        // Column growth and the fingerprint's name records; parsing into
        // owned spans first allocated about 4–5 times per span.
        assert!(
            a < 100,
            "{encoding}: a 1,024-span append allocated {a} times"
        );
    }
    for format in [
        ExportFormat::Spans,
        ExportFormat::Chrome,
        ExportFormat::Binary,
    ] {
        let (a, b) = (repeat_export(&small, format), repeat_export(&large, format));
        assert_eq!(
            a, b,
            "{format}: a repeat export of 1,024 spans allocated {a} times, of 4,096 spans {b} times"
        );
        assert!(a < 50, "{format}: a repeat export allocated {a} times");
    }
}
