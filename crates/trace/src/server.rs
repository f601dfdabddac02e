//! The tracing server: aggregates spans published by all tracers into one
//! application timeline trace (§III-A: "spans are published to a tracing
//! server ... the tracing server aggregates the spans published by the
//! different tracers into one application timeline trace").

use crate::fxhash::FxHashMap;
use crate::span::{Span, TraceId};
use crate::tracer::{Published, ServerTracer, SpanBuffer};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An aggregated timeline trace: every span published during one (or more)
/// evaluation runs, in publication order.
///
/// The trace is a span table plus a per-run index: construction buckets
/// the spans per evaluation run once ([`Trace::trace_ids`] and
/// [`Trace::run_indices`] are O(1) reads), which the correlation engine
/// consumes for every trace. Lookups by span id and parent adjacency
/// belong to the correlated trace, where parents are resolved.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Distinct evaluation runs in first-appearance order, each with the
    /// indices of its spans (in appearance order).
    runs: Vec<(TraceId, Vec<usize>)>,
}

impl Trace {
    /// Builds a trace directly from spans (used by offline conversion paths
    /// and tests). Span order is preserved; the per-run buckets are built
    /// in this single pass.
    pub fn from_spans(spans: Vec<Span>) -> Self {
        let mut runs: Vec<(TraceId, Vec<usize>)> = Vec::new();
        let mut run_of: FxHashMap<TraceId, usize> = FxHashMap::default();
        for (i, s) in spans.iter().enumerate() {
            // Drained traces arrive grouped by run, so the common case is
            // "same bucket as the previous span" — check it before hashing.
            let bucket = match runs.last() {
                Some((tid, _)) if *tid == s.trace_id => runs.len() - 1,
                _ => *run_of.entry(s.trace_id).or_insert_with(|| {
                    runs.push((s.trace_id, Vec::new()));
                    runs.len() - 1
                }),
            };
            runs[bucket].1.push(i);
        }
        Self::from_parts(spans, runs)
    }

    /// Builds a trace from spans plus an already-known run index (the drain
    /// path, which grouped the spans itself). Invariant: `runs` lists every
    /// span index exactly once, grouped per distinct trace id.
    pub(crate) fn from_parts(spans: Vec<Span>, runs: Vec<(TraceId, Vec<usize>)>) -> Self {
        debug_assert_eq!(
            runs.iter().map(|(_, v)| v.len()).sum::<usize>(),
            spans.len()
        );
        Self { spans, runs }
    }

    /// All spans, in publication order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the trace, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The distinct evaluation runs present, in first-appearance order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.runs.iter().map(|(tid, _)| *tid).collect()
    }

    /// The span indices of one evaluation run, in appearance order (empty
    /// when the run is absent).
    pub fn run_indices(&self, trace_id: TraceId) -> &[usize] {
        self.runs
            .iter()
            .find(|(tid, _)| *tid == trace_id)
            .map(|(_, idxs)| idxs.as_slice())
            .unwrap_or(&[])
    }

    /// Consumes the trace into its span table and per-run index
    /// (first-appearance order) — the zero-copy decomposition the
    /// correlation engine reads its runs from.
    pub(crate) fn into_parts(self) -> (Vec<Span>, Vec<(TraceId, Vec<usize>)>) {
        (self.spans, self.runs)
    }
}

/// Aggregation endpoint for all tracers in the process.
///
/// The server hands out [`ServerTracer`]s; spans published through them are
/// appended to the server's list of published batches, in arrival order.
/// [`TracingServer::drain`] collects everything published so far into a
/// [`Trace`], and [`TracingServer::fresh_trace_id`] allocates per-run trace
/// ids so a multi-run experiment can be demultiplexed later.
///
/// # Concurrent producers
///
/// Each batch is appended whole under one lock, and [`TracingServer::drain`]
/// orders the result by trace id (stable within a trace). As long as each
/// evaluation run (= trace id) is produced by a single worker — the model
/// of the parallel evaluation engine, which gives each worker a
/// [`SpanBuffer`] flushed once per run — the assembled trace is therefore
/// *independent of cross-thread arrival order*: workers finishing in any
/// order yield byte-identical traces.
pub struct TracingServer {
    /// The published batches; tracers hold weak references to it.
    published: Arc<Published>,
    next_trace_id: AtomicU64,
}

impl Default for TracingServer {
    fn default() -> Self {
        Self::new()
    }
}

impl TracingServer {
    /// Creates a new server with an empty buffer.
    pub fn new() -> Self {
        Self {
            published: Arc::new(Mutex::new(Vec::new())),
            next_trace_id: AtomicU64::new(1),
        }
    }

    /// Creates a tracer named `name`.
    ///
    /// Multiple profilers may coexist within a stack level (§III-A: "multiple
    /// tracers (or profilers) can exist within a stack level"); each gets its
    /// own named tracer, all feeding the same timeline.
    pub fn tracer(&self, name: &'static str) -> ServerTracer {
        ServerTracer::new(name, Arc::downgrade(&self.published))
    }

    /// Creates a [`SpanBuffer`] over the tracer named `name`: spans reported
    /// through it accumulate locally and reach this server as one atomic
    /// batch on flush. This is the per-worker publication endpoint of the
    /// parallel evaluation engine.
    pub fn buffer(&self, name: &'static str) -> SpanBuffer {
        SpanBuffer::new(self.tracer(name))
    }

    /// Allocates a fresh per-run trace id.
    pub fn fresh_trace_id(&self) -> TraceId {
        TraceId(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Collects the per-trace-id buckets of every span published since the
    /// previous drain — the shared O(n) body of [`TracingServer::drain`] and
    /// [`TracingServer::drain_each`]. Buckets iterate in ascending trace-id
    /// order; within one bucket the publication order is preserved (the
    /// list keeps arrival order and appends keep list order).
    fn drain_buckets(&self) -> BTreeMap<TraceId, Vec<Span>> {
        let batches = std::mem::take(&mut *self.published.lock());
        let mut buckets: BTreeMap<TraceId, Vec<Span>> = BTreeMap::new();
        for batch in batches {
            for span in batch {
                buckets.entry(span.trace_id).or_default().push(span);
            }
        }
        buckets
    }

    /// Collects every span published since the previous drain.
    ///
    /// Spans are returned grouped by ascending trace id via per-run bucketed
    /// accumulation — O(n) in the span count, no sort. The historical
    /// contract — "spans in publication order" — held only while every
    /// producer shared one thread; grouping by trace id keeps the order
    /// deterministic when producers of *different* runs race to publish
    /// (within one run the publication order is preserved).
    pub fn drain(&self) -> Trace {
        let buckets = self.drain_buckets();
        let mut spans = Vec::with_capacity(buckets.values().map(Vec::len).sum());
        let mut runs = Vec::with_capacity(buckets.len());
        for (tid, bucket) in buckets {
            let start = spans.len();
            spans.extend(bucket);
            runs.push((tid, (start..spans.len()).collect()));
        }
        // The buckets *are* the run index — hand both to the trace directly
        // instead of having `from_spans` re-derive them.
        Trace::from_parts(spans, runs)
    }

    /// Drains like [`TracingServer::drain`] (same buffer, same grouped-by-
    /// trace-id order — it *is* a drain) but hands each span to `f` as the
    /// buckets stream out, without assembling a [`Trace`]:
    /// spans can be fed straight into a [`crate::export::stream`] writer so
    /// the serialized trace is never materialized (see
    /// `examples/application_pipeline.rs`). Peak memory is the drained
    /// buckets themselves; no span is cloned or re-sorted on the way out.
    pub fn drain_each(&self, f: impl FnMut(Span)) {
        self.drain_buckets().into_values().flatten().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanBuilder, StackLevel};
    use crate::tracer::Tracer;

    fn span(trace_id: TraceId, name: &str, level: StackLevel, s: u64, e: u64) -> Span {
        SpanBuilder::new(name, level, trace_id).start(s).finish(e)
    }

    #[test]
    fn drain_collects_published_spans() {
        let server = TracingServer::new();
        let t1 = server.tracer("model");
        let t2 = server.tracer("layer");
        let id = server.fresh_trace_id();
        t1.report(span(id, "predict", StackLevel::Model, 0, 100));
        t2.report(span(id, "conv", StackLevel::Layer, 10, 60));
        let trace = server.drain();
        let levels: Vec<StackLevel> = trace.spans().iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![StackLevel::Model, StackLevel::Layer]);
        // second drain is empty
        assert!(server.drain().is_empty());
    }

    #[test]
    fn fresh_trace_ids_are_distinct() {
        let server = TracingServer::new();
        let a = server.fresh_trace_id();
        let b = server.fresh_trace_id();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_demultiplexes_runs() {
        let server = TracingServer::new();
        let t = server.tracer("model");
        let run1 = server.fresh_trace_id();
        let run2 = server.fresh_trace_id();
        t.report(span(run1, "p", StackLevel::Model, 0, 10));
        t.report(span(run2, "p", StackLevel::Model, 20, 35));
        let all = server.drain();
        assert_eq!(all.trace_ids(), vec![run1, run2]);
        assert_eq!(all.run_indices(run1), &[0]);
        assert_eq!(all.spans()[all.run_indices(run2)[0]].start_ns, 20);
    }

    #[test]
    fn trace_ids_index_many_distinct_runs() {
        // Regression guard for the old accumulator, which did
        // `ids.contains(&trace_id)` per span — quadratic in distinct runs.
        // The bucketed store indexes runs at construction, so sweep-scale
        // JSONL imports stay linear. Sized at 100k runs so a quadratic
        // reintroduction (~5e9 id comparisons, tens of seconds even in a
        // release build) genuinely trips the wall-clock bound instead of
        // sliding under it, while the linear path stays far below.
        const RUNS: u64 = 100_000;
        let started = std::time::Instant::now();
        let mut spans: Vec<Span> = (0..RUNS)
            .map(|i| span(TraceId(i), "p", StackLevel::Model, i, i + 1))
            .collect();
        // Non-contiguous reappearance: early runs publish again at the end.
        spans.push(span(TraceId(17), "late", StackLevel::Layer, 50, 60));
        let trace = Trace::from_spans(spans);
        let ids = trace.trace_ids();
        assert_eq!(ids.len(), RUNS as usize, "reappearance adds no dup id");
        assert_eq!(ids[0], TraceId(0));
        assert_eq!(
            ids[RUNS as usize - 1],
            TraceId(RUNS - 1),
            "first-appearance order kept"
        );
        assert_eq!(trace.run_indices(TraceId(17)), &[17, RUNS as usize]);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "{RUNS}-run indexing took {:?} — quadratic accumulation is back",
            started.elapsed()
        );
    }

    #[test]
    fn drain_is_independent_of_producer_arrival_order() {
        // Regression test for the latent ordering assumption: the old drain
        // returned raw arrival order, which was deterministic only because
        // all producers shared one thread. Simulate two workers finishing
        // out of submission order: the run-2 buffer flushes before run 1.
        let build = |server: &TracingServer, run: TraceId, names: [&str; 2]| {
            let buffer = server.buffer("worker");
            buffer.report(span(run, names[0], StackLevel::Model, 0, 100));
            buffer.report(span(run, names[1], StackLevel::Layer, 10, 60));
            buffer
        };

        let in_order = TracingServer::new();
        let b1 = build(&in_order, TraceId(1), ["p1", "l1"]);
        let b2 = build(&in_order, TraceId(2), ["p2", "l2"]);
        b1.flush();
        b2.flush();
        let expected: Vec<String> = in_order
            .drain()
            .into_spans()
            .into_iter()
            .map(|s| s.name)
            .collect();

        let out_of_order = TracingServer::new();
        let b1 = build(&out_of_order, TraceId(1), ["p1", "l1"]);
        let b2 = build(&out_of_order, TraceId(2), ["p2", "l2"]);
        b2.flush(); // run 2 arrives first
        b1.flush();
        let got: Vec<String> = out_of_order
            .drain()
            .into_spans()
            .into_iter()
            .map(|s| s.name)
            .collect();

        assert_eq!(got, expected, "drain must group by trace id, not arrival");
        assert_eq!(got, vec!["p1", "l1", "p2", "l2"]);
    }

    #[test]
    fn drain_each_streams_in_drain_order() {
        let expected = {
            let server = TracingServer::new();
            let b2 = server.buffer("w");
            b2.report(span(TraceId(2), "p2", StackLevel::Model, 0, 10));
            let b1 = server.buffer("w");
            b1.report(span(TraceId(1), "p1", StackLevel::Model, 0, 10));
            b2.flush();
            b1.flush();
            server
                .drain()
                .into_spans()
                .into_iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
        };
        let server = TracingServer::new();
        let b2 = server.buffer("w");
        b2.report(span(TraceId(2), "p2", StackLevel::Model, 0, 10));
        let b1 = server.buffer("w");
        b1.report(span(TraceId(1), "p1", StackLevel::Model, 0, 10));
        b2.flush();
        b1.flush();
        let mut streamed = Vec::new();
        server.drain_each(|s| streamed.push(s.name));
        assert_eq!(streamed, expected);
        assert_eq!(streamed, vec!["p1", "p2"], "grouped by trace id");
        assert!(server.drain().is_empty(), "drain_each consumes the buffer");
    }

    #[test]
    fn spans_survive_cross_thread_publication() {
        let server = TracingServer::new();
        let id = server.fresh_trace_id();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tracer = server.tracer("gpu");
                std::thread::spawn(move || {
                    for j in 0..100u64 {
                        tracer.report(
                            SpanBuilder::new(format!("k{i}_{j}"), StackLevel::Kernel, id)
                                .start(j)
                                .finish(j + 1),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.drain().len(), 400);
    }
}
