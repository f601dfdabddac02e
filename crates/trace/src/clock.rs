//! Virtual time source shared by every component of the simulated stack.
//!
//! The entire reproduction runs on *virtual* nanoseconds instead of wall
//! time: the CPU (framework) side advances the clock as it dispatches work
//! and the GPU simulator schedules kernels on per-stream timelines derived
//! from it. Determinism is what lets the test suite assert exact latencies
//! and lets the multi-run analysis pipeline (trimmed means across runs,
//! §III-D) be exercised reproducibly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically non-decreasing virtual clock measured in nanoseconds.
///
/// Cloning a [`VirtualClock`] yields a handle onto the *same* underlying
/// timeline (the state is reference-counted), mirroring how every profiler in
/// a real deployment reads the same host clock.
///
/// ```
/// use xsp_trace::VirtualClock;
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now(), 0);
/// clock.advance(1_500);
/// assert_eq!(clock.now(), 1_500);
/// let alias = clock.clone();
/// alias.advance(500);
/// assert_eq!(clock.now(), 2_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    /// Advances the clock by `delta_ns` and returns the new time.
    #[inline]
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.ns.fetch_add(delta_ns, Ordering::SeqCst) + delta_ns
    }

    /// Moves the clock forward to `target_ns` if it is in the future;
    /// otherwise leaves it unchanged. Returns the (possibly updated) time.
    ///
    /// Used when the CPU blocks on device synchronization: the host timeline
    /// jumps to the completion time of the last GPU activity.
    pub fn advance_to(&self, target_ns: u64) -> u64 {
        let mut cur = self.ns.load(Ordering::SeqCst);
        while cur < target_ns {
            match self
                .ns
                .compare_exchange(cur, target_ns, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return target_ns,
                Err(observed) => cur = observed,
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let c = VirtualClock::new();
        c.advance(100);
        assert_eq!(c.advance_to(50), 100, "must not rewind");
        assert_eq!(c.advance_to(250), 250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn clones_share_timeline() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(7);
        b.advance(3);
        assert_eq!(a.now(), 10);
        assert_eq!(b.now(), 10);
    }

    #[test]
    fn concurrent_advances_are_all_counted() {
        let c = VirtualClock::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), 8000);
    }
}
