//! Decoding a `.xspb` span record allocates only for what it cannot
//! borrow: the span's name and its tag list. A well-known tag key is
//! borrowed from its constant, and a numeric value owns nothing, so the
//! count does not grow with the number of such tags.
//!
//! This file is a test binary of its own with a single test, so the
//! counting allocator below sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use xsp_trace::export::{spans_to_binary, SpanBinaryReader};
use xsp_trace::span::tag_keys;
use xsp_trace::{Span, SpanBuilder, StackLevel, TagValue, TraceId};

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

/// A kernel span with the first `tags` of six well-known keys, each with a
/// numeric value, and `custom` extra tags under a key no constant names.
fn kernel(tags: usize, custom: usize) -> Span {
    let keys: [(&'static str, TagValue); 6] = [
        (tag_keys::CORRELATION_ID, TagValue::U64(7)),
        (tag_keys::ASYNC_EXECUTION, TagValue::Bool(true)),
        (tag_keys::STREAM, TagValue::U64(0)),
        (tag_keys::FLOP_COUNT_SP, TagValue::U64(1 << 30)),
        (tag_keys::DRAM_READ_BYTES, TagValue::I64(4096)),
        (tag_keys::ACHIEVED_OCCUPANCY, TagValue::F64(0.625)),
    ];
    let mut b = SpanBuilder::new("volta_sgemm_128x64_nn", StackLevel::Kernel, TraceId(1)).start(10);
    for (key, value) in keys.into_iter().take(tags) {
        b = b.tag(key, value);
    }
    for i in 0..custom {
        b = b.tag("custom_counter", i as u64);
    }
    b.finish(20)
}

/// The allocations made by decoding the second record of a two-span
/// stream, after the first record warmed up the reader's symbol table
/// and payload buffer.
fn allocs_of_second_record(span: &Span) -> u64 {
    let bytes = spans_to_binary(&[span.clone(), span.clone()]);
    let mut reader = SpanBinaryReader::new(&bytes[..]);
    reader.next_span().unwrap().expect("a warm-up record");
    let before = ALLOCS.load(Ordering::SeqCst);
    let decoded = reader.next_span().unwrap().expect("a second record");
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(&decoded, span, "the record decodes to the span written");
    black_box(decoded);
    after - before
}

#[test]
fn a_span_record_with_well_known_keys_allocates_its_name_and_tag_list() {
    for tags in [1, 6] {
        assert_eq!(
            allocs_of_second_record(&kernel(tags, 0)),
            2,
            "{tags} well-known tags: the name and the tag list"
        );
    }
    // A key no constant names is owned, one allocation per tag.
    assert_eq!(allocs_of_second_record(&kernel(1, 2)), 4);
}
