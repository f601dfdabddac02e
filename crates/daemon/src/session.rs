//! Per-client profiling sessions: a bounded resident span store and an
//! optional [`ExportSink`] the store spills to under quota pressure and
//! persists to on close.
//!
//! Spans stay columnar from the wire to the writer. An `Append` body is
//! parsed straight into the session's [`SpanStore`] (`.xspb` through
//! [`SpanBinaryReader::read_into_store`], span-JSON-lines through
//! [`read_span_json_lines_into_store`]); exports write the store through
//! its correlation cache's verdicts ([`export_correlated_store`]), and
//! flushes and spills write the unsunk store rows. No step builds an owned
//! span per resident span.
//!
//! Memory is bounded per session by a span quota. An accepted batch is
//! pushed into the resident store in the order it arrived on the wire, so
//! a live export lists runs and spans exactly as `xsp export --from` of
//! the same capture does, and "resident" always means the store length.
//! A batch is atomic: it lands whole or not at all. One that is malformed
//! or refused is truncated back out of the store, so stats, later exports
//! and the content fingerprint are as if it never arrived. When an append
//! would exceed the quota the session applies its backpressure policy:
//! [`OnFull::Shed`] rejects the batch with an explicit error the daemon
//! turns into an `Err` frame, [`OnFull::Block`] evicts the store to the
//! sink first (the producer stalls for the duration of the sink write) and
//! then accepts. Evicted spans are durable in the sink but no longer
//! visible to live export — the `spilled` counter in every ack makes that
//! trade visible to the client.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xsp_core::cache::{Fnv128, ShardedCache};
use xsp_core::export::{export_correlated_store, ExportFormat, ExportSink};
use xsp_trace::export::{
    is_xspb_prefix, read_span_json_lines_into_store, SpanBinaryReader, SpanBinaryWriter,
};
use xsp_trace::{CorrelationEngine, Span, SpanStore, StoreCorrelationCache};

/// Process-wide export byte cache shared by every session of a daemon:
/// keyed by the session's content fingerprint combined with the export
/// format, valued by the finished export bytes. Two sessions that ingested
/// the same capture (the N-processes-profiling-one-model fleet case) serve
/// the second export as an `Arc` bump with zero correlation passes.
pub type ExportCache = ShardedCache<Arc<Vec<u8>>>;

/// Default per-session span quota (resident spans) when the client's open
/// request does not pick one.
pub const DEFAULT_QUOTA: usize = 1 << 20;

/// Backpressure policy when an append would push the session over quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnFull {
    /// Reject the batch with an explicit error frame; nothing is dropped
    /// silently — the producer decides whether to retry after a flush.
    #[default]
    Shed,
    /// Evict the resident store to the session sink, then accept. Bounds
    /// memory at the cost of stalling the producer during the sink write;
    /// requires a sink (validated at open).
    Block,
}

impl OnFull {
    /// Parses the `on_full` spelling of an open request.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw {
            "shed" => Some(OnFull::Shed),
            "block" => Some(OnFull::Block),
            _ => None,
        }
    }
}

/// Point-in-time session counters, reported in every ack frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Spans currently resident (live-exportable).
    pub resident: usize,
    /// Spans accepted over the session lifetime.
    pub total: u64,
    /// Spans evicted to the sink under quota pressure.
    pub spilled: u64,
}

/// Why an append was refused.
#[derive(Debug)]
pub enum SessionError {
    /// The batch alone exceeds the quota — it can never be accepted.
    BatchOverQuota {
        /// Spans in the refused batch.
        batch: usize,
        /// The session quota.
        quota: usize,
    },
    /// Accepting the batch would exceed the quota and the policy is
    /// [`OnFull::Shed`].
    QuotaExceeded {
        /// Spans currently resident.
        resident: usize,
        /// The session quota.
        quota: usize,
    },
    /// The sink latched a write error while spilling.
    SinkError(String),
    /// The batch body is not a span capture: the `.xspb` or span-JSON-lines
    /// reader's error, naming the encoding.
    BadPayload(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::BatchOverQuota { batch, quota } => write!(
                f,
                "batch of {batch} spans exceeds the session quota of {quota}; split the batch"
            ),
            SessionError::QuotaExceeded { resident, quota } => write!(
                f,
                "session quota exhausted ({resident} of {quota} spans resident); \
                 flush or close the session, or open with on_full=block"
            ),
            SessionError::SinkError(msg) => write!(f, "session sink failed: {msg}"),
            SessionError::BadPayload(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SessionError {}

/// One client session: the resident store and its correlation cache.
///
/// Residency is columnar: accepted spans land in a [`SpanStore`] (interned
/// names, struct-of-arrays columns, shared tag/log arenas), so a session
/// holding its quota of spans costs one arena instead of a `Vec` of owned
/// span objects. Spans stay there from the append to every export, flush
/// and spill, which read the store rows in place.
pub struct Session {
    id: u64,
    store: SpanStore,
    /// The first `sunk` store entries have already been written to the
    /// sink (by a flush); close and spill only append the suffix, so no
    /// span reaches the sink twice.
    sunk: usize,
    quota: usize,
    on_full: OnFull,
    sink: Option<ExportSink>,
    /// The correlation engine behind the cache below; its scratch buffers
    /// (verdicts, level buckets, trees) are reused across refreshes.
    engine: CorrelationEngine,
    /// Per-run correlation cache over the resident store: an `Export`
    /// request only re-correlates runs that gained spans since the last
    /// one, so repeat exports are O(new spans), not O(resident).
    correlation: StoreCorrelationCache,
    total: u64,
    spilled: u64,
    last_activity: Instant,
    /// Running fingerprint of the resident content: every accepted batch
    /// folds in the `.xspb` encoding of its rows, read back from the store
    /// (so JSONL, `.xspb` and owned appends of the same spans hash
    /// identically), and a spill resets it (evicted spans are no longer
    /// visible to live export). Sessions with equal fingerprints hold
    /// byte-identical resident captures.
    content_hash: Fnv128,
    /// The buffer each batch's rows are encoded into for the fingerprint.
    hash_buf: Vec<u8>,
    /// The length of the last export in each format (by
    /// [`ExportFormat::ALL`] position): the next one starts with that
    /// capacity.
    export_lens: [usize; 4],
    /// Export byte cache shared across the daemon's sessions, installed by
    /// the registry at open; `None` for standalone sessions (unit tests).
    export_cache: Option<Arc<ExportCache>>,
}

impl Session {
    /// Creates a session. `OnFull::Block` without a sink is refused by the
    /// daemon's open handler before this constructor runs.
    pub fn new(id: u64, quota: usize, on_full: OnFull, sink: Option<ExportSink>) -> Self {
        Self {
            id,
            store: SpanStore::new(),
            sunk: 0,
            quota,
            on_full,
            sink,
            engine: CorrelationEngine::new(),
            correlation: StoreCorrelationCache::new(),
            total: 0,
            spilled: 0,
            last_activity: Instant::now(),
            content_hash: Fnv128::new(),
            hash_buf: Vec::new(),
            export_lens: [0; 4],
            export_cache: None,
        }
    }

    /// Installs the daemon-wide export cache; exports consult it by
    /// content fingerprint before correlating, and publish into it after.
    pub fn share_export_cache(&mut self, cache: Arc<ExportCache>) {
        self.export_cache = Some(cache);
    }

    /// Fingerprint of the resident capture (order-sensitive over accepted
    /// batches, reset by spills). Two sessions that appended the same
    /// batches in the same order report the same fingerprint.
    pub fn content_fingerprint(&self) -> u128 {
        self.content_hash.finish()
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stamps the session as active now (any frame touching it).
    pub fn touch(&mut self) {
        self.last_activity = Instant::now();
    }

    /// How long the session has been idle.
    pub fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_activity)
    }

    /// Current counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            resident: self.store.len(),
            total: self.total,
            spilled: self.spilled,
        }
    }

    /// Ingests one batch of owned spans into the resident store, in order,
    /// applying the backpressure policy. The batch is atomic: it is
    /// accepted whole or refused whole.
    pub fn append(&mut self, spans: Vec<Span>) -> Result<SessionStats, SessionError> {
        self.land(|store| {
            for span in &spans {
                store.push(span);
            }
            Ok(())
        })
    }

    /// Ingests one `Append` body — `.xspb` (sniffed by its magic) or
    /// span-JSON-lines — straight into the resident store, with the
    /// atomicity and backpressure of [`Session::append`]. A body either
    /// reader refuses is [`SessionError::BadPayload`], even when it would
    /// also exceed the quota.
    pub fn append_bytes(&mut self, body: &[u8]) -> Result<SessionStats, SessionError> {
        self.land(|store| {
            if is_xspb_prefix(body) {
                SpanBinaryReader::new(body)
                    .read_into_store(store)
                    .map_err(|e| format!("span binary: {e}"))
            } else {
                read_span_json_lines_into_store(body, store).map_err(|e| format!("span JSONL: {e}"))
            }
            .map(drop)
        })
    }

    /// Lands one batch: `ingest` pushes it onto the store, then the quota
    /// decides. A batch that fails to ingest or is refused is truncated back
    /// out; under [`OnFull::Block`] the store is spilled and the batch
    /// ingested again, now at the front. An accepted batch's rows are folded
    /// into the content fingerprint.
    fn land(
        &mut self,
        ingest: impl Fn(&mut SpanStore) -> Result<(), String>,
    ) -> Result<SessionStats, SessionError> {
        self.touch();
        let mut mark = self.store.len();
        let landed = ingest(&mut self.store);
        let n = self.store.len() - mark;
        if let Err(msg) = landed {
            self.store.truncate(mark);
            return Err(SessionError::BadPayload(msg));
        }
        if n > self.quota {
            self.store.truncate(mark);
            return Err(SessionError::BatchOverQuota {
                batch: n,
                quota: self.quota,
            });
        }
        if mark + n > self.quota {
            self.store.truncate(mark);
            match self.on_full {
                OnFull::Shed => {
                    return Err(SessionError::QuotaExceeded {
                        resident: mark,
                        quota: self.quota,
                    });
                }
                OnFull::Block => {
                    self.spill()?;
                    ingest(&mut self.store).expect("a batch that landed once lands again");
                    mark = 0;
                }
            }
        }
        self.fingerprint_rows(mark);
        self.total += n as u64;
        Ok(self.stats())
    }

    /// Folds the rows from `from` on, one accepted batch, into the content
    /// fingerprint: their `.xspb` encoding, exactly the bytes
    /// `spans_to_binary` gives for the same spans, written into a reused
    /// buffer.
    fn fingerprint_rows(&mut self, from: usize) {
        let mut buf = std::mem::take(&mut self.hash_buf);
        buf.clear();
        let mut w = SpanBinaryWriter::new(&mut buf).expect("writing to a Vec cannot fail");
        for i in from..self.store.len() {
            w.write_span(self.store.view(i as u32))
                .expect("writing to a Vec cannot fail");
        }
        drop(w);
        self.content_hash.write_field("batch", &buf);
        self.hash_buf = buf;
    }

    /// Writes the store rows past `sunk` to the sink, in place.
    fn write_unsunk(&self, sink: &ExportSink) {
        sink.write_spans((self.sunk..self.store.len()).map(|i| self.store.view(i as u32)));
    }

    /// Evicts the entire resident store to the sink (the [`OnFull::Block`]
    /// path). Spans a previous flush already persisted are not re-written.
    fn spill(&mut self) -> Result<(), SessionError> {
        let sink = self
            .sink
            .as_ref()
            .expect("block policy without a sink is rejected at open");
        self.write_unsunk(sink);
        if let Some(msg) = sink.error_message() {
            return Err(SessionError::SinkError(msg));
        }
        self.spilled += self.store.len() as u64;
        self.store.clear();
        // The store's indices restart at 0 after a clear — cached per-run
        // correlations refer to dead entries and must be rebuilt.
        self.correlation.invalidate();
        // Live export now covers only post-spill spans; the content
        // fingerprint restarts with them.
        self.content_hash = Fnv128::new();
        self.sunk = 0;
        Ok(())
    }

    /// Persists the un-persisted store suffix to the sink (which is also
    /// flushed). Resident spans stay resident — a flush never changes what
    /// a later export sees. Returns the stats and the sink's latched error,
    /// if any.
    pub fn flush(&mut self) -> (SessionStats, Option<String>) {
        self.touch();
        let sink_error = match &self.sink {
            Some(sink) => {
                self.write_unsunk(sink);
                self.sunk = self.store.len();
                let _ = sink.flush();
                sink.error_message()
            }
            None => None,
        };
        (self.stats(), sink_error)
    }

    /// Serializes the resident spans in `format`, exactly as the offline
    /// `xsp export --from` path would. Correlation is incremental: the
    /// per-session [`StoreCorrelationCache`] re-correlates only runs whose
    /// store bucket grew since the previous export (append-only stores keep
    /// finalized runs bit-identical), so a repeat export is O(new spans).
    /// The cache keeps the engine's verdicts per run, and
    /// [`export_correlated_store`] writes each store row through its
    /// verdict — the parents and the launch-tag fold an owned trace's
    /// correlation gives, even when a batch boundary split a launch from
    /// its execution — with the bytes `export_correlated` writes for the
    /// same capture converted one-shot. No owned span is built.
    /// When a daemon-wide [`ExportCache`] is installed, the finished bytes
    /// are additionally shared by content fingerprint: a second session
    /// that ingested the same capture serves its export straight from the
    /// cache, with zero correlation passes of its own. The bytes are
    /// returned as the cache holds them: a hit copies nothing.
    pub fn export_bytes(&mut self, format: ExportFormat) -> Arc<Vec<u8>> {
        self.touch();
        if self.store.is_empty() {
            return Arc::default();
        }
        let key = self.export_key(format);
        if let Some(hit) = self.export_cache.as_ref().and_then(|cache| cache.get(key)) {
            return hit;
        }
        self.correlation.refresh(&mut self.engine, &self.store);
        let slot = ExportFormat::ALL
            .iter()
            .position(|&f| f == format)
            .expect("every format is listed");
        let mut out = Vec::with_capacity(self.export_lens[slot]);
        export_correlated_store(&self.correlation.correlated(&self.store), format, &mut out)
            .expect("export to an in-memory buffer cannot fail");
        self.export_lens[slot] = out.len();
        let Some(cache) = &self.export_cache else {
            return Arc::new(out);
        };
        // The cache keeps an exact-size copy: holding the buffer grown by
        // doubling instead fragments the heap, and peak RSS rises with it.
        let out = Arc::new(out.clone());
        cache.insert(key, Arc::clone(&out));
        out
    }

    /// Cache key for an export: the content fingerprint extended with the
    /// format label, so the four formats of one capture occupy distinct
    /// slots.
    fn export_key(&self, format: ExportFormat) -> u128 {
        let mut key = self.content_hash;
        key.write_field("format", format.label().as_bytes());
        key.finish()
    }

    /// How many per-run correlation passes this session has executed over
    /// its lifetime — the observable for "repeat exports do O(new) work":
    /// an export after no new spans adds zero passes.
    pub fn correlation_passes(&self) -> usize {
        self.correlation.passes()
    }

    /// Final teardown: like [`Session::flush`], used for client close,
    /// disconnect teardown, and the daemon's shutdown drain — every path
    /// out of a session persists its spans to the sink. The sink is also
    /// finished (format trailers written, e.g. the Chrome `]}` envelope
    /// close); [`ExportSink::finish`] is idempotent, so overlapping
    /// teardown paths stay safe.
    pub fn close(&mut self) -> (SessionStats, Option<String>) {
        let (stats, err) = self.flush();
        let finish_err = self
            .sink
            .as_ref()
            .and_then(|sink| sink.finish().err().map(|e| e.to_string()));
        (stats, err.or(finish_err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsp_trace::{SpanBuilder, StackLevel, TraceId};

    fn spans(n: usize) -> Vec<Span> {
        (0..n)
            .map(|i| {
                SpanBuilder::new("s", StackLevel::Model, TraceId(1))
                    .start(i as u64)
                    .finish(i as u64 + 1)
            })
            .collect()
    }

    #[test]
    fn append_lands_in_the_store() {
        let mut s = Session::new(1, 100, OnFull::Shed, None);
        let stats = s.append(spans(3)).unwrap();
        assert_eq!(stats.resident, 3);
        assert_eq!(stats.total, 3);
        assert_eq!(stats.spilled, 0);
    }

    #[test]
    fn shed_rejects_over_quota_batch_atomically() {
        let mut s = Session::new(1, 5, OnFull::Shed, None);
        s.append(spans(4)).unwrap();
        match s.append(spans(3)) {
            Err(SessionError::QuotaExceeded {
                resident: 4,
                quota: 5,
            }) => {}
            other => panic!("expected quota exceeded, got {other:?}"),
        }
        // The refused batch left no partial residue.
        assert_eq!(s.stats().resident, 4);
        assert_eq!(s.stats().total, 4);
        // Exactly at quota still fits.
        assert_eq!(s.append(spans(1)).unwrap().resident, 5);
    }

    #[test]
    fn batch_larger_than_quota_is_never_acceptable() {
        let mut s = Session::new(1, 2, OnFull::Shed, None);
        match s.append(spans(3)) {
            Err(SessionError::BatchOverQuota { batch: 3, quota: 2 }) => {}
            other => panic!("expected batch over quota, got {other:?}"),
        }
    }

    #[test]
    fn block_spills_to_sink_and_accepts() {
        let sink = ExportSink::new(Vec::new());
        let mut s = Session::new(1, 5, OnFull::Block, Some(sink.clone()));
        s.append(spans(4)).unwrap();
        let stats = s.append(spans(3)).unwrap();
        assert_eq!(stats.spilled, 4, "store evicted to the sink");
        assert_eq!(stats.resident, 3, "new batch resident after eviction");
        assert_eq!(stats.total, 7);
        assert_eq!(sink.spans_written(), 4);
    }

    #[test]
    fn flush_persists_without_evicting_and_close_never_double_writes() {
        let sink = ExportSink::new(Vec::new());
        let mut s = Session::new(1, 100, OnFull::Shed, Some(sink.clone()));
        s.append(spans(3)).unwrap();
        let (stats, err) = s.flush();
        assert!(err.is_none());
        assert_eq!(stats.resident, 3, "flush keeps spans live-exportable");
        assert_eq!(sink.spans_written(), 3);
        s.append(spans(2)).unwrap();
        let (_, err) = s.close();
        assert!(err.is_none());
        assert_eq!(sink.spans_written(), 5, "close writes only the suffix");
    }

    fn run_spans(trace_id: u64, n: usize) -> Vec<Span> {
        (0..n)
            .map(|i| {
                SpanBuilder::new("s", StackLevel::Model, TraceId(trace_id))
                    .start(i as u64)
                    .finish(i as u64 + 1)
            })
            .collect()
    }

    #[test]
    fn repeat_export_does_o_new_correlation_work() {
        let mut s = Session::new(1, 1000, OnFull::Shed, None);
        s.append(run_spans(1, 3)).unwrap();
        s.append(run_spans(2, 2)).unwrap();

        let first = s.export_bytes(ExportFormat::Spans);
        assert!(!first.is_empty());
        assert_eq!(s.correlation_passes(), 2, "one pass per resident run");

        // Nothing new: the repeat export must reuse the finalized prefix
        // wholesale — zero additional correlation passes.
        let second = s.export_bytes(ExportFormat::Spans);
        assert_eq!(second, first, "no new spans, identical bytes");
        assert_eq!(
            s.correlation_passes(),
            2,
            "cached prefix, no re-correlation"
        );

        // Growing one run re-correlates only that run.
        s.append(run_spans(2, 1)).unwrap();
        s.export_bytes(ExportFormat::Spans);
        assert_eq!(s.correlation_passes(), 3, "only the grown run re-runs");

        // A brand-new run adds exactly one pass.
        s.append(run_spans(3, 2)).unwrap();
        s.export_bytes(ExportFormat::Spans);
        assert_eq!(s.correlation_passes(), 4, "only the new run is correlated");
    }

    #[test]
    fn spill_invalidates_the_correlation_cache() {
        let sink = ExportSink::new(Vec::new());
        let mut s = Session::new(1, 4, OnFull::Block, Some(sink.clone()));
        s.append(run_spans(1, 3)).unwrap();
        let before_spill = s.export_bytes(ExportFormat::Spans);
        assert_eq!(s.correlation_passes(), 1);

        // This append evicts the store; cached correlations point at dead
        // store indices and must not survive.
        s.append(run_spans(1, 3)).unwrap();
        let after_spill = s.export_bytes(ExportFormat::Spans);
        assert_eq!(
            s.correlation_passes(),
            2,
            "post-spill export re-correlates the fresh store"
        );
        assert_eq!(
            after_spill.len(),
            before_spill.len(),
            "a same-shape store exports the same spans (ids are fresh)"
        );
    }

    #[test]
    fn sessions_with_identical_content_share_the_export_cache() {
        let cache = Arc::new(ExportCache::with_capacity(16));
        let mut a = Session::new(1, 1000, OnFull::Shed, None);
        let mut b = Session::new(2, 1000, OnFull::Shed, None);
        a.share_export_cache(Arc::clone(&cache));
        b.share_export_cache(Arc::clone(&cache));

        // The same capture streamed to both sessions (span ids included,
        // exactly as identical wire batches would carry them).
        let capture = run_spans(1, 3);
        a.append(capture.clone()).unwrap();
        b.append(capture).unwrap();
        assert_eq!(
            a.content_fingerprint(),
            b.content_fingerprint(),
            "identical appends, identical fingerprints"
        );

        let first = a.export_bytes(ExportFormat::Spans);
        assert!(a.correlation_passes() > 0, "the first export correlates");

        // The second session serves straight from the shared cache: byte
        // identity with zero correlation passes of its own.
        let second = b.export_bytes(ExportFormat::Spans);
        assert_eq!(second, first);
        assert_eq!(b.correlation_passes(), 0, "served from the shared cache");
        assert_eq!(cache.stats().hits, 1);

        // A divergent append forks the fingerprint and misses the cache.
        b.append(run_spans(2, 1)).unwrap();
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
        let diverged = b.export_bytes(ExportFormat::Spans);
        assert_ne!(diverged, first);
        assert!(b.correlation_passes() > 0, "divergent content correlates");
    }

    /// A capture with every tag kind, a log, a string that needs escaping
    /// and a launch/execution pair, over two runs.
    fn mixed_capture() -> Vec<Span> {
        use xsp_trace::span::tag_keys;
        let model = SpanBuilder::new("predict \"q\"", StackLevel::Model, TraceId(1))
            .start(0)
            .tag("batch_size", 4u64)
            .tag("note", "tab\there")
            .tag("neg", xsp_trace::TagValue::I64(-3))
            .tag("occ", 0.25f64)
            .tag("flag", false)
            .log(5, "warm ✓")
            .finish(1_000);
        let launch = SpanBuilder::new("cudaLaunchKernel", StackLevel::Kernel, TraceId(1))
            .start(10)
            .tag(tag_keys::CORRELATION_ID, 7u64)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .finish(20);
        let exec = SpanBuilder::new("volta", StackLevel::Kernel, TraceId(1))
            .start(30)
            .tag(tag_keys::CORRELATION_ID, 7u64)
            .tag(tag_keys::ASYNC_EXECUTION, true)
            .finish(900);
        let mut spans = vec![model, launch, exec];
        spans.extend(run_spans(2, 3));
        spans
    }

    #[test]
    fn content_fingerprint_is_the_same_for_jsonl_xspb_and_owned_appends() {
        use crate::client::{spans_to_binary, spans_to_jsonl};
        let capture = mixed_capture();
        let (first, second) = capture.split_at(2);
        let mut owned = Session::new(1, 1000, OnFull::Shed, None);
        let mut jsonl = Session::new(2, 1000, OnFull::Shed, None);
        let mut xspb = Session::new(3, 1000, OnFull::Shed, None);
        for batch in [first, second] {
            owned.append(batch.to_vec()).unwrap();
            jsonl.append_bytes(&spans_to_jsonl(batch)).unwrap();
            xspb.append_bytes(&spans_to_binary(batch)).unwrap();
        }
        assert_eq!(owned.content_fingerprint(), jsonl.content_fingerprint());
        assert_eq!(owned.content_fingerprint(), xspb.content_fingerprint());
        // The fingerprint is the one the owned batches' `.xspb` encoding
        // gives.
        let mut expected = Fnv128::new();
        for batch in [first, second] {
            expected.write_field("batch", &spans_to_binary(batch));
        }
        assert_eq!(owned.content_fingerprint(), expected.finish());
        for format in ExportFormat::ALL {
            let bytes = owned.export_bytes(format);
            assert_eq!(bytes, jsonl.export_bytes(format), "{format}");
            assert_eq!(bytes, xspb.export_bytes(format), "{format}");
        }
    }

    /// Everything a refused batch could disturb.
    fn observe(s: &mut Session) -> (SessionStats, u128, Vec<Arc<Vec<u8>>>) {
        let exports = ExportFormat::ALL.map(|f| s.export_bytes(f)).to_vec();
        (s.stats(), s.content_fingerprint(), exports)
    }

    #[test]
    fn a_refused_batch_leaves_the_session_as_if_it_never_arrived() {
        use crate::client::{spans_to_binary, spans_to_jsonl};
        let capture = mixed_capture();
        let mut before = Session::new(1, 8, OnFull::Shed, None);
        before.append_bytes(&spans_to_jsonl(&capture)).unwrap();
        let want = observe(&mut before);

        let mut torn_jsonl = spans_to_jsonl(&run_spans(3, 3));
        torn_jsonl.truncate(torn_jsonl.len() - 10);
        let mut torn_xspb = spans_to_binary(&run_spans(3, 3));
        torn_xspb.truncate(torn_xspb.len() - 3);
        let over = spans_to_binary(&run_spans(3, 3));
        let mut s = Session::new(1, 8, OnFull::Shed, None);
        s.append_bytes(&spans_to_jsonl(&capture)).unwrap();
        for (body, code) in [
            (&torn_jsonl, "span JSONL"),
            (&torn_xspb, "span binary"),
            (&over, "quota"),
        ] {
            let err = s.append_bytes(body).unwrap_err();
            assert!(err.to_string().contains(code), "{err}");
            assert_eq!(observe(&mut s), want, "{code}");
        }
        // A malformed batch is bad_payload even when it is also over quota.
        let mut big_torn = spans_to_jsonl(&run_spans(3, 20));
        big_torn.truncate(big_torn.len() - 10);
        assert!(matches!(
            s.append_bytes(&big_torn),
            Err(SessionError::BadPayload(msg)) if msg.contains("line 20")
        ));
        assert_eq!(observe(&mut s), want);
        // Later appends land as on the untouched session.
        let next = spans_to_jsonl(&run_spans(2, 1));
        s.append_bytes(&next).unwrap();
        before.append_bytes(&next).unwrap();
        assert_eq!(observe(&mut s), observe(&mut before));
    }

    #[test]
    fn a_sink_error_under_block_lands_nothing() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let capture = crate::client::spans_to_jsonl(&run_spans(1, 3));
        let mut s = Session::new(1, 4, OnFull::Block, Some(ExportSink::new(Broken)));
        s.append_bytes(&capture).unwrap();
        let want = observe(&mut s);
        match s.append_bytes(&capture) {
            Err(SessionError::SinkError(msg)) => assert!(msg.contains("disk full"), "{msg}"),
            other => panic!("expected a sink error, got {other:?}"),
        }
        assert_eq!(observe(&mut s), want);
    }

    #[test]
    fn content_fingerprint_is_encoding_agnostic_and_resets_on_spill() {
        // The fingerprint hashes the `.xspb` encoding of the rows read back
        // from the store, so two sessions fed the same spans fingerprint
        // identically.
        let mut a = Session::new(1, 1000, OnFull::Shed, None);
        let mut b = Session::new(2, 1000, OnFull::Shed, None);
        let capture = run_spans(1, 4);
        a.append(capture.clone()).unwrap();
        b.append(capture).unwrap();
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        assert_eq!(
            a.content_fingerprint(),
            a.content_fingerprint(),
            "reading the fingerprint does not perturb it"
        );

        // A spill clears the store; the fingerprint follows the resident
        // content, covering only post-spill batches.
        let sink = ExportSink::new(Vec::new());
        let mut c = Session::new(3, 4, OnFull::Block, Some(sink));
        c.append(run_spans(1, 3)).unwrap();
        let pre_spill = c.content_fingerprint();
        let batch = run_spans(1, 3);
        c.append(batch.clone()).unwrap(); // evicts, then accepts
        let mut fresh = Session::new(4, 1000, OnFull::Shed, None);
        fresh.append(batch).unwrap();
        assert_ne!(
            c.content_fingerprint(),
            pre_spill,
            "spill restarts the fingerprint"
        );
        assert_eq!(
            c.content_fingerprint(),
            fresh.content_fingerprint(),
            "post-spill fingerprint covers exactly the resident batches"
        );
    }

    #[test]
    fn idle_clock_resets_on_touch() {
        let mut s = Session::new(1, 10, OnFull::Shed, None);
        let later = Instant::now() + Duration::from_secs(60);
        assert!(s.idle_for(later) >= Duration::from_secs(59));
        s.touch();
        assert!(s.idle_for(Instant::now()) < Duration::from_secs(1));
    }

    #[test]
    fn on_full_spellings() {
        assert_eq!(OnFull::parse("shed"), Some(OnFull::Shed));
        assert_eq!(OnFull::parse("block"), Some(OnFull::Block));
        assert_eq!(OnFull::parse("drop"), None);
    }
}
