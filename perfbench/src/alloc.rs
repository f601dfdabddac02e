//! Counting global allocator: exact allocation counts and allocated bytes,
//! per thread and process-wide.
//!
//! Counting is off until [`enable`] is called, so the untraced run pays one
//! relaxed load per allocation and nothing else. A `realloc` counts as one
//! allocation of its new size. Process-wide totals are kept in per-thread
//! slots, each on its own cache line, so two threads allocating at once
//! never contend on a shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The benchmark binary's allocator.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide tallies, one slot per thread (threads beyond `SLOTS`
/// share slots round-robin; the counts stay exact, only contention rises).
const SLOTS: usize = 4096;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static SLOT: [Slot; SLOTS] = [EMPTY; SLOTS];
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0 }) };
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// An allocation tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    /// Allocations made between `earlier` and `self`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[inline]
fn note(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: the slots are const-initialized and have no destructor,
    // but allocations during thread teardown must still never panic.
    let _ = LOCAL.try_with(|c| {
        let mut v = c.get();
        v.allocs += 1;
        v.bytes += size as u64;
        c.set(v);
    });
    let slot = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(CLAIMED.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    SLOT[slot].allocs.fetch_add(1, Ordering::Relaxed);
    SLOT[slot].bytes.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches atomics and
// const-initialized thread-locals without destructors, which never
// allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Allocations made so far by the calling thread.
pub fn thread_counts() -> Counts {
    LOCAL.try_with(Cell::get).unwrap_or_default()
}

/// Allocations made so far by every thread of the process.
pub fn process_counts() -> Counts {
    let used = CLAIMED.load(Ordering::Relaxed).min(SLOTS);
    SLOT[..used.max(1)]
        .iter()
        .fold(Counts::default(), |acc, s| Counts {
            allocs: acc.allocs + s.allocs.load(Ordering::Relaxed),
            bytes: acc.bytes + s.bytes.load(Ordering::Relaxed),
        })
}
