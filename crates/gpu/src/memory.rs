//! Device-memory allocation tracking.
//!
//! Frameworks allocate output tensors and scratch workspaces per layer; the
//! paper's A4/A7 analyses report "memory allocations performed by a
//! framework for a layer". The tracker attributes every allocation to a
//! caller-supplied *scope* (the executing layer) so the framework profiler
//! can report per-layer allocated bytes.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Opaque allocation handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(u64);

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    live: HashMap<AllocId, u64>,
    current: u64,
    peak: u64,
    total_allocated: u64,
    per_scope: HashMap<Arc<str>, u64>,
}

/// Thread-safe `cudaMalloc`/`cudaFree` accounting.
#[derive(Debug, Default)]
pub struct MemTracker {
    inner: Mutex<Inner>,
}

impl MemTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation of `bytes` attributed to `scope`. A shared
    /// scope name (the executing layer's) is kept without a copy.
    pub fn alloc(&self, bytes: u64, scope: impl Into<Arc<str>>) -> AllocId {
        let mut g = self.inner.lock();
        g.next_id += 1;
        let id = AllocId(g.next_id);
        g.live.insert(id, bytes);
        g.current += bytes;
        g.peak = g.peak.max(g.current);
        g.total_allocated += bytes;
        *g.per_scope.entry(scope.into()).or_default() += bytes;
        id
    }

    /// Releases an allocation. Returns the freed byte count, or `None` for
    /// an unknown/double free.
    pub fn free(&self, id: AllocId) -> Option<u64> {
        let mut g = self.inner.lock();
        let bytes = g.live.remove(&id)?;
        g.current -= bytes;
        Some(bytes)
    }

    /// Bytes currently allocated.
    pub fn current(&self) -> u64 {
        self.inner.lock().current
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.inner.lock().peak
    }

    /// Cumulative bytes ever allocated.
    pub fn total_allocated(&self) -> u64 {
        self.inner.lock().total_allocated
    }

    /// Cumulative bytes allocated under `scope`.
    pub fn scope_total(&self, scope: &str) -> u64 {
        self.inner.lock().per_scope.get(scope).copied().unwrap_or(0)
    }

    /// Snapshot of all per-scope totals.
    pub fn scope_totals(&self) -> HashMap<Arc<str>, u64> {
        self.inner.lock().per_scope.clone()
    }

    /// Resets all statistics and drops live allocations (context teardown).
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let t = MemTracker::new();
        let a = t.alloc(100, "layer1");
        let b = t.alloc(50, "layer2");
        assert_eq!(t.current(), 150);
        assert_eq!(t.peak(), 150);
        assert_eq!(t.free(a), Some(100));
        assert_eq!(t.current(), 50);
        assert_eq!(t.peak(), 150, "peak persists");
        assert_eq!(t.free(b), Some(50));
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn double_free_is_detected() {
        let t = MemTracker::new();
        let a = t.alloc(10, "s");
        assert!(t.free(a).is_some());
        assert!(t.free(a).is_none());
    }

    #[test]
    fn scope_attribution_accumulates() {
        let t = MemTracker::new();
        t.alloc(10, "conv1");
        t.alloc(20, "conv1");
        t.alloc(5, "relu1");
        assert_eq!(t.scope_total("conv1"), 30);
        assert_eq!(t.scope_total("relu1"), 5);
        assert_eq!(t.scope_total("missing"), 0);
        assert_eq!(t.total_allocated(), 35);
        let totals = t.scope_totals();
        assert_eq!(totals.len(), 2);
    }

    #[test]
    fn scope_totals_survive_free() {
        let t = MemTracker::new();
        let a = t.alloc(64, "layer");
        t.free(a);
        assert_eq!(
            t.scope_total("layer"),
            64,
            "A4 reports allocations, not residency"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let t = MemTracker::new();
        t.alloc(10, "x");
        t.reset();
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 0);
        assert_eq!(t.total_allocated(), 0);
        assert!(t.scope_totals().is_empty());
    }

    #[test]
    fn concurrent_allocations_are_consistent() {
        let t = std::sync::Arc::new(MemTracker::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        t.alloc(4, format!("scope{i}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.total_allocated(), 4000);
        assert_eq!(t.current(), 4000);
    }
}
