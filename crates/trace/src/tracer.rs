//! Tracers: per-profiler span publishers (§III-A step 1: "each profiler
//! within a stack is turned into a tracer").
//!
//! Every profiler — the model-level timer, the framework layer profiler, the
//! CUPTI adapter — holds a [`Tracer`] and publishes finished spans through
//! it. A publish appends the span to the [`crate::TracingServer`]'s list of
//! published batches under a lock that a drain holds only long enough to
//! take the list, so publication adds negligible overhead to the profiled
//! application (§III-C: "creating spans online adds negligible overhead per
//! span"). A tracer forwards every span it is given. A run chooses its
//! profiling levels by the tracers it receives: a level whose profiler gets
//! no tracer (or, for the GPU level, whose CUPTI hook is not registered)
//! produces no spans and pays none of their cost (leveled experimentation,
//! §III-C).
//!
//! The server collects *batches* of spans. A plain [`ServerTracer`]
//! publishes singleton batches; a [`SpanBuffer`] accumulates spans locally
//! and flushes them as one atomic batch, so spans produced by one worker
//! arrive at the server contiguously even when many workers publish to the
//! same server concurrently. That contiguity — not a post-hoc re-sort of a
//! shared buffer — is what keeps concurrent trace assembly deterministic.

use crate::span::Span;
use parking_lot::Mutex;
use std::sync::Weak;

/// A tracing server's published span batches, in arrival order.
pub(crate) type Published = Mutex<Vec<Vec<Span>>>;

/// A destination for finished spans.
pub trait Tracer: Send + Sync {
    /// Publishes a finished span. Implementations must not block on the
    /// consumer.
    fn report(&self, span: Span);
}

/// A tracer that publishes spans to a [`crate::TracingServer`], handed out
/// by [`crate::TracingServer::tracer`].
///
/// The tracer holds only a weak reference to the server's batch list: spans
/// reported after the server is dropped are dropped silently.
#[derive(Clone)]
pub struct ServerTracer {
    name: &'static str,
    published: Weak<Published>,
}

impl ServerTracer {
    /// Creates a tracer named `name` publishing into `published`.
    pub(crate) fn new(name: &'static str, published: Weak<Published>) -> Self {
        Self { name, published }
    }

    /// The tracer's name (identifies the producing profiler).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Publishes a batch of spans atomically: the batch arrives at the
    /// server contiguously, with no spans from other producers interleaved.
    /// Empty batches are skipped. The server may already have shut down
    /// during teardown; spans published after that point are intentionally
    /// dropped.
    pub fn report_batch(&self, spans: Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        if let Some(published) = self.published.upgrade() {
            published.lock().push(spans);
        }
    }
}

impl Tracer for ServerTracer {
    fn report(&self, span: Span) {
        self.report_batch(vec![span]);
    }
}

/// A buffering tracer: spans accumulate locally and reach the server only on
/// [`SpanBuffer::flush`] (or drop), as one atomic batch.
///
/// This is the per-worker publication path of the parallel evaluation
/// engine. Each worker buffers the spans of the run it is executing and
/// flushes them in one piece, so a server shared by many workers receives
/// every run's spans contiguously — trace assembly then depends only on
/// trace ids, never on cross-thread arrival interleaving.
pub struct SpanBuffer {
    inner: ServerTracer,
    buf: Mutex<Vec<Span>>,
}

impl SpanBuffer {
    /// Creates a buffer that flushes into `inner`.
    pub fn new(inner: ServerTracer) -> Self {
        Self {
            inner,
            buf: Mutex::new(Vec::new()),
        }
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the buffer holds no spans.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Publishes every buffered span to the server as one atomic batch and
    /// returns how many were flushed.
    pub fn flush(&self) -> usize {
        let spans = std::mem::take(&mut *self.buf.lock());
        let n = spans.len();
        self.inner.report_batch(spans);
        n
    }
}

impl Tracer for SpanBuffer {
    fn report(&self, span: Span) {
        self.buf.lock().push(span);
    }
}

impl Drop for SpanBuffer {
    fn drop(&mut self) {
        // Buffered spans must not be lost if the caller forgets to flush.
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanBuilder, StackLevel, TraceId};
    use crate::TracingServer;
    use std::sync::Arc;

    fn mk_span(name: &str) -> Span {
        SpanBuilder::new(name, StackLevel::Model, TraceId(0))
            .start(0)
            .finish(1)
    }

    fn drained_names(server: &TracingServer) -> Vec<String> {
        server
            .drain()
            .into_spans()
            .into_iter()
            .map(|s| s.name)
            .collect()
    }

    /// A tracer over a bare batch list, for checks on batch boundaries.
    fn bare_tracer() -> (Arc<Published>, ServerTracer) {
        let published = Arc::new(Mutex::new(Vec::new()));
        let tracer = ServerTracer::new("t", Arc::downgrade(&published));
        (published, tracer)
    }

    #[test]
    fn channel_tracer_forwards_spans() {
        let server = TracingServer::new();
        let tracer = server.tracer("test");
        tracer.report(mk_span("a"));
        tracer.report(mk_span("b"));
        assert_eq!(drained_names(&server), vec!["a", "b"]);
    }

    #[test]
    fn report_after_receiver_drop_is_silent() {
        let server = TracingServer::new();
        let tracer = server.tracer("t");
        let buffer = server.buffer("t");
        buffer.report(mk_span("buffered"));
        drop(server);
        // None of these may panic: the spans are dropped.
        tracer.report(mk_span("late"));
        tracer.report_batch(vec![mk_span("late")]);
        assert_eq!(buffer.flush(), 1);
    }

    #[test]
    fn batch_arrives_as_one_message() {
        let (published, tracer) = bare_tracer();
        tracer.report(mk_span("x"));
        tracer.report_batch(vec![mk_span("a"), mk_span("b")]);
        tracer.report_batch(Vec::new()); // empty batches are skipped
        let sizes: Vec<usize> = published.lock().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1, 2]);

        // Batches racing from several threads each arrive whole and
        // contiguous.
        let server = TracingServer::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let tracer = server.tracer("batched");
                scope.spawn(move || {
                    for _ in 0..50 {
                        tracer.report_batch((0..8).map(|_| mk_span(&t.to_string())).collect());
                    }
                });
            }
        });
        let names = drained_names(&server);
        assert_eq!(names.len(), 4 * 50 * 8);
        for chunk in names.chunks(8) {
            assert!(
                chunk.iter().all(|n| *n == chunk[0]),
                "split batch: {chunk:?}"
            );
        }
    }

    #[test]
    fn span_buffer_holds_until_flush() {
        let server = TracingServer::new();
        let buffer = server.buffer("t");
        buffer.report(mk_span("a"));
        server.tracer("other").report(mk_span("x"));
        buffer.report(mk_span("b"));
        assert_eq!(buffer.len(), 2);
        assert_eq!(
            drained_names(&server),
            vec!["x"],
            "nothing sent before flush"
        );
        server.tracer("other").report(mk_span("y"));
        assert_eq!(buffer.flush(), 2);
        assert!(buffer.is_empty());
        assert_eq!(
            drained_names(&server),
            vec!["y", "a", "b"],
            "flush is one atomic batch"
        );
    }

    #[test]
    fn span_buffer_flushes_on_drop() {
        let server = TracingServer::new();
        {
            let buffer = server.buffer("t");
            buffer.report(mk_span("late"));
        }
        assert_eq!(drained_names(&server), vec!["late"]);
    }
}
