//! The parallel evaluation engine: a scoped worker pool that fans
//! independent evaluation points out to N workers and merges the results
//! deterministically in submission order.
//!
//! Leveled experimentation evaluates every `(run, level, batch)` point
//! independently — each point builds its own tracing server, CUDA context
//! and framework session, and the simulator is deterministic per seed — so
//! the points of a sweep can execute concurrently without observing each
//! other. The engine exploits exactly that: [`parmap`]'s scoped worker
//! threads take points from one shared queue under a lock, and each writes
//! its result into the slot of that point's submission index.
//!
//! # Determinism contract
//!
//! Parallel output is *byte-identical* to serial output, enforced by the
//! test suite. Three properties combine to give that guarantee:
//!
//! 1. every evaluation point is self-contained and seed-deterministic
//!    (no shared mutable simulator state);
//! 2. span ids are allocated from deterministic per-point scopes
//!    ([`xsp_trace::with_span_id_scope`]) instead of a process-global
//!    counter, so id assignment cannot depend on worker interleaving;
//! 3. results land in slots by submission index, never by completion order
//!    (and span batches are grouped by trace id at the server — see
//!    [`xsp_trace::TracingServer::drain`]).
//!
//! The [`Parallelism`] knob picks the worker count; `XSP_THREADS` overrides
//! it from the environment (`XSP_THREADS=1` forces serial execution for
//! debugging). Nested engine calls — a parallel sweep whose points
//! themselves profile in parallel — run their inner level serially instead
//! of oversubscribing the machine.

use parking_lot::Mutex;
use std::cell::Cell;
use std::thread;

/// How many workers the evaluation engine uses.
///
/// ```
/// use xsp_core::scheduler::Parallelism;
/// assert_eq!(Parallelism::Serial.workers(), 1);
/// assert_eq!(Parallelism::Fixed(4).workers(), 4);
/// assert!(Parallelism::Auto.workers() >= 1);
/// assert_eq!(Parallelism::parse("1"), Some(Parallelism::Serial));
/// assert_eq!(Parallelism::parse("6"), Some(Parallelism::Fixed(6)));
/// assert_eq!(Parallelism::parse("auto"), Some(Parallelism::Auto));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Execute every point inline on the calling thread, in submission
    /// order. Use this when debugging: one point at a time, no worker
    /// threads in backtraces.
    Serial,
    /// One worker per available core (`std::thread::available_parallelism`).
    Auto,
    /// Exactly `n` workers (clamped to at least 1; `Fixed(1)` behaves like
    /// [`Parallelism::Serial`]).
    Fixed(usize),
}

thread_local! {
    /// Set while the current thread is an engine worker; nested engine
    /// calls then degrade to serial instead of spawning pools of pools.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

struct WorkerGuard;

impl WorkerGuard {
    fn enter() -> Self {
        IN_WORKER.with(|w| w.set(true));
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(false));
    }
}

impl Parallelism {
    /// Reads the `XSP_THREADS` environment override, if set and parseable.
    /// `1` (or `serial`) forces serial execution, `0`/`auto` means one
    /// worker per core, any other `n` means `Fixed(n)`.
    pub fn from_env() -> Option<Self> {
        Self::parse(&std::env::var("XSP_THREADS").ok()?)
    }

    /// The `XSP_THREADS` override, or `default` when unset/unparseable.
    pub fn from_env_or(default: Self) -> Self {
        Self::from_env().unwrap_or(default)
    }

    /// Parses a thread-count spec (the `XSP_THREADS` / `--threads` syntax).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim() {
            "auto" | "0" => Some(Parallelism::Auto),
            "serial" | "1" => Some(Parallelism::Serial),
            n => n.parse::<usize>().ok().map(Parallelism::Fixed),
        }
    }

    /// The worker count this knob resolves to on the current thread: 1 for
    /// `Serial`, `n` for `Fixed(n)`, the core count for `Auto` — and always
    /// 1 inside an engine worker (nested parallelism runs serially).
    pub fn workers(self) -> usize {
        if IN_WORKER.with(|w| w.get()) {
            return 1;
        }
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Runs `f` over every item of `items` — possibly concurrently, per `par` —
/// and returns the results *in submission order*.
///
/// `f` receives `(submission index, item)`. Workers take items from one
/// shared queue (a faster worker takes more points) and write each result
/// into the slot of its index, so the output is identical for every worker
/// count. A panic in any worker propagates to the caller once all workers
/// have stopped.
///
/// ```
/// use xsp_core::scheduler::{parmap, Parallelism};
/// let serial = parmap(Parallelism::Serial, (0u64..16).collect(), |i, x| x * x + i as u64);
/// let parallel = parmap(Parallelism::Fixed(4), (0u64..16).collect(), |i, x| x * x + i as u64);
/// assert_eq!(serial, parallel);
/// ```
pub fn parmap<T, R, F>(par: Parallelism, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = par.workers().min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let tasks = Mutex::new(items.into_iter().enumerate());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _guard = WorkerGuard::enter();
                loop {
                    // Bind the task first so the queue lock is released
                    // before `f` runs.
                    let task = tasks.lock().next();
                    let Some((index, item)) = task else { break };
                    let result = f(index, item);
                    slots.lock()[index] = Some(result);
                }
            });
        }
        // The scope joins every worker before returning; a worker panic
        // re-raises here, before result assembly.
    });

    slots
        .into_inner()
        .into_iter()
        .map(|slot| slot.expect("every submitted point produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parmap(Parallelism::Fixed(8), items.clone(), |_, x| {
            // stagger completion: later items finish first
            std::thread::sleep(std::time::Duration::from_micros(200 - 3 * x.min(60)));
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize, x: u64| (i as u64) << 32 | x.wrapping_mul(0x9E37_79B9);
        let serial = parmap(Parallelism::Serial, (0..33).collect(), f);
        for workers in [2, 3, 8] {
            let parallel = parmap(Parallelism::Fixed(workers), (0..33).collect(), f);
            assert_eq!(serial, parallel, "{workers} workers");
        }
    }

    #[test]
    fn work_actually_distributes_across_threads() {
        let main_thread = std::thread::current().id();
        let off_main = AtomicUsize::new(0);
        parmap(
            Parallelism::Fixed(4),
            (0..32).collect::<Vec<u64>>(),
            |_, _| {
                if std::thread::current().id() != main_thread {
                    off_main.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            },
        );
        assert_eq!(off_main.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let out = parmap(Parallelism::Fixed(4), vec![0u64; 4], |i, _| {
            assert_eq!(Parallelism::Auto.workers(), 1, "inside a worker");
            let inner_main = std::thread::current().id();
            parmap(Parallelism::Fixed(4), vec![(); 4], move |j, ()| {
                assert_eq!(std::thread::current().id(), inner_main);
                (i, j)
            })
            .len()
        });
        assert_eq!(out, vec![4; 4]);
        assert!(Parallelism::Auto.workers() >= 1, "flag restored after pool");
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = parmap(Parallelism::Fixed(4), Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parmap(
                Parallelism::Fixed(2),
                (0..8).collect::<Vec<u64>>(),
                |_, x| {
                    assert!(x != 5, "boom");
                    x
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Parallelism::parse("x"), None);
        assert_eq!(Parallelism::parse(""), None);
        assert_eq!(Parallelism::parse(" 3 "), Some(Parallelism::Fixed(3)));
        assert_eq!(Parallelism::parse("serial"), Some(Parallelism::Serial));
        assert_eq!(Parallelism::parse("0"), Some(Parallelism::Auto));
    }
}
