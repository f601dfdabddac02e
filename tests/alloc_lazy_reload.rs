//! A warm `.xspc` reload costs only what its reader touches, and interning
//! a name costs one allocation. Both are pinned by counting allocations.
//!
//! - `read_xspc` validates every run record but decodes none: loading two
//!   profiles whose runs differ in span count allocates equally often.
//! - A run's spans are decoded on first access, once, and touching one run
//!   leaves the others undecoded.
//! - `NameTable` keeps each distinct string once.
//!
//! The counting allocator counts per thread, so the tests of this binary
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xsp_core::cache::{read_xspc, xspc_to_bytes, GraphFingerprint};
use xsp_core::profile::{LeveledProfile, ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::builder::GraphBuilder;
use xsp_trace::NameTable;

/// Counts every allocation of the current thread; a `realloc` counts as
/// one.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The full leveled profile (one run per bucket) of a small CNN with
/// `blocks` conv blocks, as `.xspc` bytes.
fn xspc_of_cnn(blocks: usize) -> Vec<u8> {
    let mut b = GraphBuilder::new(1, 3, 32, 32);
    for _ in 0..blocks {
        b.conv(16, 3, 1, 1).bias_add().relu();
    }
    b.maxpool(2, 2);
    b.fc(10).softmax();
    let profile =
        Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1))
            .run(ProfileRequest::new(&b.finish()).level(ProfilingLevel::ModelLayerGpu));
    xspc_to_bytes(GraphFingerprint(1), &profile)
}

fn load(bytes: &[u8]) -> LeveledProfile {
    read_xspc(&mut &bytes[..]).expect("a valid file").1
}

#[test]
fn a_reload_allocates_independently_of_span_count() {
    let (small, large) = (xspc_of_cnn(1), xspc_of_cnn(3));
    load(&small); // warm any lazily initialized state
    let (small_profile, small_allocs) = allocs_of(|| load(&small));
    let (large_profile, large_allocs) = allocs_of(|| load(&large));
    let spans = |p: &LeveledProfile| p.runs().map(|r| r.trace.len()).collect::<Vec<_>>();
    assert_ne!(spans(&small_profile), spans(&large_profile));
    assert_eq!(
        small_allocs, large_allocs,
        "a reload decodes no span, so its allocations do not grow with the runs"
    );
}

#[test]
fn touching_one_run_decodes_that_run_only() {
    let profile = load(&xspc_of_cnn(2));
    let mlg = &profile.mlg_runs[0];
    let (walked, allocs) = allocs_of(|| mlg.trace.len());
    assert_eq!(allocs, 0, "the span count comes from the validation walk");

    let (decoded, allocs) = allocs_of(|| mlg.trace.spans().len());
    assert_eq!(decoded, walked);
    assert!(allocs > 0, "the first access decodes the run");
    let (_, allocs) = allocs_of(|| mlg.trace.spans().len());
    assert_eq!(allocs, 0, "the run is decoded once");

    // Its tables are extracted on first use, once.
    let (_, allocs) = allocs_of(|| mlg.kernels().len());
    assert!(allocs > 0);
    let (_, allocs) = allocs_of(|| (mlg.layers().len(), mlg.kernels().len()));
    assert_eq!(allocs, 0);

    // Every other run is still undecoded: its first access pays.
    for run in profile.runs().filter(|r| !std::ptr::eq(*r, mlg)) {
        let (_, allocs) = allocs_of(|| run.trace.spans().len());
        assert!(allocs > 0, "{} run was decoded early", run.level.label());
    }
}

#[test]
fn interning_a_name_allocates_it_once() {
    let names: Vec<String> = (0..100).map(|i| format!("volta_kernel_{i}")).collect();
    let mut table = NameTable::new();
    let (_, allocs) = allocs_of(|| {
        for name in &names {
            table.intern(name);
        }
    });
    // One owned copy per name, plus the doublings of the symbol vector and
    // of the hash index (six each for 100 entries, 112 in all). Keeping a
    // second copy as the index's key cost 212.
    assert!(allocs <= 100 + 16, "{allocs} allocations for 100 names");
    let (_, allocs) = allocs_of(|| {
        for name in &names {
            table.intern(name);
        }
    });
    assert_eq!(allocs, 0, "a hit allocates nothing");
}
