//! Allocation counts repeat exactly: at a fixed worker count, every call of
//! the evaluation engine and of a whole profile allocates the same number
//! of times. The exact work-count gate (`ci/check_counts.py`) relies on it.
//! A warmed silent prediction allocates nothing at all: the simulated stack
//! keeps no record of a run beside its spans.
//!
//! This file is a test binary of its own with a single test, so the
//! counting allocator below sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xsp_core::profile::{ProfileRequest, Xsp, XspConfig};
use xsp_core::scheduler::{parmap, Parallelism};
use xsp_framework::{FrameworkKind, RunOptions, Session};
use xsp_gpu::{systems, CudaContext, CudaContextConfig};
use xsp_models::zoo;
use xsp_trace::TraceId;

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

/// Calls `f` `calls` times after one warm-up call and asserts that every
/// call allocated equally often.
fn assert_repeats<R>(what: &str, calls: usize, mut f: impl FnMut() -> R) {
    allocs_of(&mut f);
    let counts: Vec<u64> = (0..calls).map(|_| allocs_of(&mut f)).collect();
    let first = counts[0];
    let odd: Vec<(usize, u64)> = counts
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c != first)
        .collect();
    assert!(
        odd.is_empty(),
        "{what}: call 0 allocated {first} times, but (call, count) {odd:?} differ"
    );
}

#[test]
fn allocation_counts_repeat_at_a_fixed_worker_count() {
    assert_repeats("parmap over 64 items at 4 workers", 200, || {
        parmap(
            Parallelism::Fixed(4),
            (0..64).collect::<Vec<u64>>(),
            |_, x| x,
        )
    });

    let graph = zoo::by_name("MobileNet_v1_0.25_128")
        .expect("zoo has MobileNet_v1_0.25_128")
        .graph(1);
    let xsp = Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .parallelism(Parallelism::Fixed(2)),
    );
    assert_repeats(
        "Xsp::run of MobileNet_v1_0.25_128 at 2 workers",
        300,
        || xsp.run(ProfileRequest::new(&graph)),
    );

    let ctx = Arc::new(CudaContext::new(CudaContextConfig::new(
        systems::tesla_v100(),
    )));
    let session = Session::new(FrameworkKind::TensorFlow, &graph, ctx);
    let silent = RunOptions::silent(TraceId(1));
    session.predict(&silent);
    let counts: Vec<u64> = (0..20)
        .map(|_| allocs_of(|| session.predict(&silent)))
        .collect();
    assert!(
        counts.iter().all(|&c| c == 0),
        "a warmed silent predict of MobileNet_v1_0.25_128 allocated {counts:?} times"
    );
}
