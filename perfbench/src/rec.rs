//! Benchmark-side span recorder for the traced run.
//!
//! Spans live in this file's own structs rather than as `xsp_trace` spans:
//! span ids allocated outside an id scope come from a process-wide counter
//! inside the program, and benchmark tracing must not perturb program
//! state. A disabled recorder runs the wrapped call and records nothing.

use crate::alloc::{self, Counts};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Whose allocations a span counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counted {
    /// The calling thread's, and the call is deterministic in its input:
    /// the counts must repeat exactly whenever the input repeats.
    Exact,
    /// The calling thread's, but the call's work depends on timing
    /// (socket reads, a daemon thread's progress).
    Thread,
    /// The whole process's: the call fans out to worker threads.
    Process,
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: Counts,
    pub counted: Counted,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Exact per-op counters recorded beside the spans.
#[derive(Debug, Clone, Default)]
pub struct OpRec {
    pub op: u32,
    /// Identity of the op's input: ops with equal keys ran identical inputs.
    pub key: u64,
    /// Whether the op belongs to the first full rotation of inputs, over
    /// which the per-op counts are reported.
    pub first_cycle: bool,
    /// Whether the record belongs to the probe phase.
    pub probe: bool,
    pub counters: Vec<(&'static str, u64)>,
}

/// A recorder for the thread that drives the ops.
pub struct Rec {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<u32>>,
    ops: RefCell<Vec<OpRec>>,
    op: Cell<u32>,
}

impl Rec {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            ops: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Starts the bookkeeping of op number `op` with input identity `key`.
    pub fn begin_op(&self, op: u32, key: u64, first_cycle: bool) {
        self.op.set(op);
        if self.on {
            self.ops.borrow_mut().push(OpRec {
                op,
                key,
                first_cycle,
                probe: false,
                counters: Vec::new(),
            });
        }
    }

    /// Starts re-enacting the calls of op `op`, which already ran.
    pub fn probe_op(&self, op: u32) {
        self.op.set(op);
        if self.on {
            self.ops.borrow_mut().push(OpRec {
                op,
                key: op as u64,
                first_cycle: false,
                probe: true,
                counters: Vec::new(),
            });
        }
    }

    /// Records an exact counter of the current op.
    pub fn count(&self, name: &'static str, value: u64) {
        if self.on {
            if let Some(op) = self.ops.borrow_mut().last_mut() {
                op.counters.push((name, value));
            }
        }
    }

    /// Times `f` as a span counting the calling thread's allocations, for a
    /// call that is deterministic in its input.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_counted(name, Counted::Exact, f)
    }

    /// Times `f` as a span, counting allocations as `counted` says.
    pub fn span_counted<R>(
        &self,
        name: &'static str,
        counted: Counted,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let index = spans.len() as u32;
            spans.push(SpanRec {
                name,
                op: self.op.get(),
                parent: self.stack.borrow().last().copied(),
                start_ns: 0,
                end_ns: 0,
                allocs: Counts::default(),
                counted,
            });
            index
        };
        self.stack.borrow_mut().push(index);
        let counts = || match counted {
            Counted::Process => alloc::process_counts(),
            Counted::Exact | Counted::Thread => alloc::thread_counts(),
        };
        let before = counts();
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        let after = counts();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        span.allocs = after.since(before);
        out
    }

    /// The recorded spans and op records.
    pub fn finish(self) -> (Vec<SpanRec>, Vec<OpRec>) {
        (self.spans.into_inner(), self.ops.into_inner())
    }
}
