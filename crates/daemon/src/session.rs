//! Per-client profiling sessions: a bounded resident span store and an
//! optional [`ExportSink`] the store spills to under quota pressure and
//! persists to on close.
//!
//! Memory is bounded per session by a span quota. An accepted batch is
//! pushed into the resident store in the order it arrived on the wire, so
//! a live export lists runs and spans exactly as `xsp export --from` of
//! the same capture does, and "resident" always means the store length.
//! When an append would exceed the quota the session applies its
//! backpressure policy: [`OnFull::Shed`] rejects the batch with an explicit
//! error the daemon turns into an `Err` frame, [`OnFull::Block`] evicts the
//! store to the sink first (the producer stalls for the duration of the
//! sink write) and then accepts. Evicted spans are durable in the sink but no longer
//! visible to live export — the `spilled` counter in every ack makes that
//! trade visible to the client.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xsp_core::cache::{Fnv128, ShardedCache};
use xsp_core::export::{export_correlated, ExportFormat, ExportSink};
use xsp_trace::export::spans_to_binary;
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
        }
    }
}

impl std::error::Error for SessionError {}

/// One client session: the resident store and its correlation cache.
///
/// Residency is columnar: accepted spans land in a [`SpanStore`] (interned
/// names, struct-of-arrays columns, shared tag/log arenas), so a session
/// holding its quota of spans costs one arena instead of a `Vec` of owned
/// span objects. Spans are materialized back only at the boundaries that
/// need the interchange type — sink spills and live export.
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
    /// folds its canonical `.xspb` re-encoding in (so JSONL and binary
    /// appends of the same spans hash identically), and a spill resets it
    /// (evicted spans are no longer visible to live export). Sessions with
    /// equal fingerprints hold byte-identical resident captures.
    content_hash: Fnv128,
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

    /// Materializes the store suffix past `sunk` into interchange spans
    /// (the sink boundary) without touching already-persisted entries.
    fn unsunk_spans(&self) -> Vec<Span> {
        (self.sunk..self.store.len())
            .map(|i| self.store.materialize(i as u32))
            .collect()
    }

    /// Ingests one span batch into the resident store, in wire order,
    /// applying the backpressure policy. The batch is atomic: it is
    /// accepted whole or refused whole.
    pub fn append(&mut self, spans: Vec<Span>) -> Result<SessionStats, SessionError> {
        self.touch();
        let n = spans.len();
        if n > self.quota {
            return Err(SessionError::BatchOverQuota {
                batch: n,
                quota: self.quota,
            });
        }
        if self.store.len() + n > self.quota {
            match self.on_full {
                OnFull::Shed => {
                    return Err(SessionError::QuotaExceeded {
                        resident: self.store.len(),
                        quota: self.quota,
                    });
                }
                OnFull::Block => self.spill()?,
            }
        }
        // The batch is accepted: fold its canonical binary encoding into
        // the content fingerprint, then store it.
        self.content_hash
            .write_field("batch", &spans_to_binary(&spans));
        for span in &spans {
            self.store.push(span);
        }
        self.total += n as u64;
        Ok(self.stats())
    }

    /// Evicts the entire resident store to the sink (the [`OnFull::Block`]
    /// path). Spans a previous flush already persisted are not re-written.
    fn spill(&mut self) -> Result<(), SessionError> {
        let suffix = self.unsunk_spans();
        let sink = self
            .sink
            .as_ref()
            .expect("block policy without a sink is rejected at open");
        sink.write_spans(&suffix);
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
                let suffix = self.unsunk_spans();
                sink.write_spans(&suffix);
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
    /// The cache keeps the engine's verdicts per run and turns them into
    /// spans through the step an owned trace's correlation uses — the same
    /// parents and the same launch-tag fold, even when a batch boundary
    /// split a launch from its execution — and the correlated trace is
    /// written by the same [`export_correlated`] the offline path calls,
    /// so a capture streamed through the daemon exports byte-identically
    /// to the same capture converted one-shot.
    /// When a daemon-wide [`ExportCache`] is installed, the finished bytes
    /// are additionally shared by content fingerprint: a second session
    /// that ingested the same capture serves its export straight from the
    /// cache, with zero correlation passes of its own.
    pub fn export_bytes(&mut self, format: ExportFormat) -> Vec<u8> {
        self.touch();
        if self.store.is_empty() {
            return Vec::new();
        }
        let key = self.export_key(format);
        if let Some(cache) = &self.export_cache {
            if let Some(hit) = cache.get(key) {
                return (*hit).clone();
            }
        }
        self.correlation.refresh(&mut self.engine, &self.store);
        let correlated = self.correlation.materialize(&self.store);
        let mut out = Vec::new();
        export_correlated(&correlated, format, &mut out)
            .expect("export to an in-memory buffer cannot fail");
        if let Some(cache) = &self.export_cache {
            cache.insert(key, Arc::new(out.clone()));
        }
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

    #[test]
    fn content_fingerprint_is_encoding_agnostic_and_resets_on_spill() {
        // The fingerprint hashes the canonical re-encoding, so a session
        // fed parsed spans (whether the wire carried JSONL or .xspb, the
        // daemon parses both to `Vec<Span>`) fingerprints identically.
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
