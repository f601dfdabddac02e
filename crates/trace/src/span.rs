//! Spans: the unit of profiled work in the across-stack timeline (§III-A).
//!
//! Each profiled event — a model-prediction step, a framework layer, a CUDA
//! API call, a GPU kernel execution — becomes one [`Span`]. A span carries a
//! unique identifier, start/end timestamps on the shared virtual timeline,
//! the HW/SW [`StackLevel`] it was captured at, user-defined tags and an
//! optional parent reference. Parent references known at creation time (e.g.
//! layer → model) are set directly; the rest are reconstructed offline (see
//! [`crate::correlate`]).

use crate::store::TagRef;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique span identifier.
///
/// Ids are unique within their allocation scope: by default a process-global
/// counter, or — inside [`with_span_id_scope`] — a deterministic per-scope
/// sequence that makes id assignment independent of what other threads are
/// doing. The latter is what lets a parallel evaluation engine produce
/// byte-identical traces regardless of worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(pub u64);

/// Identifier of the timeline trace a span belongs to (one trace per
/// evaluation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceId(pub u64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The innermost [`with_span_id_scope`] on this thread, as `(scope key,
    /// next local counter)`; enclosing scopes wait in their calls' guards.
    /// Plain `Copy` data: entering a scope never allocates, so a thread's
    /// allocation count does not depend on whether it ever ran one.
    static ID_SCOPE: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Scope keys occupy the high id bits (offset by 1 so scoped ids never
/// collide with the low process-global range); counters the low 32 bits.
const SCOPE_KEY_BITS: u64 = 31;
const SCOPE_COUNTER_BITS: u64 = 32;

/// Runs `f` with span ids drawn from a deterministic sequence private to
/// `scope` instead of the process-global counter.
///
/// Every execution of a region under the same scope key yields the same id
/// sequence, no matter which thread runs it or what runs concurrently —
/// the property that makes parallel evaluation byte-identical to serial
/// evaluation. Scopes nest (the innermost wins) and are thread-local: the
/// caller must pick scope keys that are unique among traces it intends to
/// merge, since two identical keys replay the same id sequence. Scope keys
/// are truncated to 31 bits and each scope can allocate 2³² ids.
///
/// ```
/// use xsp_trace::span::{with_span_id_scope, SpanId};
/// let a = with_span_id_scope(7, || (SpanId::next(), SpanId::next()));
/// let b = with_span_id_scope(7, || (SpanId::next(), SpanId::next()));
/// assert_eq!(a, b, "same scope key replays the same id sequence");
/// assert_ne!(a.0, with_span_id_scope(8, SpanId::next));
/// ```
pub fn with_span_id_scope<R>(scope: u64, f: impl FnOnce() -> R) -> R {
    /// Restores the enclosing scope (or none) when `f` returns or unwinds.
    struct Guard(Option<(u64, u64)>);
    impl Drop for Guard {
        fn drop(&mut self) {
            ID_SCOPE.with(|s| s.set(self.0));
        }
    }
    let _guard = Guard(ID_SCOPE.with(|s| s.replace(Some((scope, 0)))));
    f()
}

impl SpanId {
    /// Allocates a fresh span id: scope-deterministic inside
    /// [`with_span_id_scope`], process-unique (global counter) otherwise.
    pub fn next() -> Self {
        let scoped = ID_SCOPE.with(|s| {
            let (scope, counter) = s.get()?;
            s.set(Some((scope, counter + 1)));
            let key = (scope & ((1 << SCOPE_KEY_BITS) - 1)) + 1;
            Some((key << SCOPE_COUNTER_BITS) | (counter & ((1 << SCOPE_COUNTER_BITS) - 1)))
        });
        match scoped {
            Some(id) => SpanId(id),
            None => SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)),
        }
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The level within the HW/SW stack a span was captured at (§III-A step 3:
/// "each span is tagged with its stack level").
///
/// The paper numbers levels from 1 (model) downwards; `Application` (level 0)
/// and `Library` (between layer and kernel) exist for the extensibility story
/// of §III-E — e.g. profiling whole applications or cuDNN API calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StackLevel {
    /// Whole-application events (distributed pipelines, multi-model apps).
    Application,
    /// Model-level events: pre-processing, model prediction, post-processing.
    Model,
    /// Framework layer-level events (Conv2D, BN, Relu, ...).
    Layer,
    /// System-library-level events (cuDNN/cuBLAS API calls).
    Library,
    /// GPU kernel-level events: CUDA API calls, kernel executions, memcpy.
    Kernel,
}

impl StackLevel {
    /// Numeric rank; smaller is "higher" in the stack. Model = 1 as in the
    /// paper ("level 1 is the model level").
    pub fn rank(self) -> u8 {
        match self {
            StackLevel::Application => 0,
            StackLevel::Model => 1,
            StackLevel::Layer => 2,
            StackLevel::Library => 3,
            StackLevel::Kernel => 4,
        }
    }

    /// All levels ordered top (Application) to bottom (Kernel).
    pub const ALL: [StackLevel; 5] = [
        StackLevel::Application,
        StackLevel::Model,
        StackLevel::Layer,
        StackLevel::Library,
        StackLevel::Kernel,
    ];
}

impl StackLevel {
    /// The lowercase name: `Display` output and a Chrome event's `cat`.
    pub fn label(self) -> &'static str {
        const LABELS: [&str; 5] = ["application", "model", "layer", "library", "kernel"];
        LABELS[self.rank() as usize]
    }
}

impl fmt::Display for StackLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A tag key: a well-known key borrows its [`tag_keys`] constant, any
/// other key owns its string. Most spans carry only well-known keys, so
/// building, decoding or copying their tags allocates no key at all.
pub type TagKey = Cow<'static, str>;

/// A user-defined span annotation value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TagValue {
    /// String tag: borrowed when a producer passes a `&'static str`
    /// constant, owned when built at run time or decoded.
    Str(Cow<'static, str>),
    /// Signed integer tag.
    I64(i64),
    /// Unsigned integer tag (kernel counters, byte counts).
    U64(u64),
    /// Floating-point tag (occupancy, ratios).
    F64(f64),
    /// Boolean tag.
    Bool(bool),
}

impl TagValue {
    /// Returns the tag as `u64` when it holds an unsigned or non-negative
    /// signed integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TagValue::U64(v) => Some(*v),
            TagValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Returns the tag as `f64` when it holds any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TagValue::F64(v) => Some(*v),
            TagValue::I64(v) => Some(*v as f64),
            TagValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the tag as `&str` when it holds a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TagValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<&'static str> for TagValue {
    fn from(v: &'static str) -> Self {
        TagValue::Str(Cow::Borrowed(v))
    }
}
impl From<String> for TagValue {
    fn from(v: String) -> Self {
        TagValue::Str(Cow::Owned(v))
    }
}
impl From<i64> for TagValue {
    fn from(v: i64) -> Self {
        TagValue::I64(v)
    }
}
impl From<u64> for TagValue {
    fn from(v: u64) -> Self {
        TagValue::U64(v)
    }
}
impl From<f64> for TagValue {
    fn from(v: f64) -> Self {
        TagValue::F64(v)
    }
}
impl From<bool> for TagValue {
    fn from(v: bool) -> Self {
        TagValue::Bool(v)
    }
}

/// A timestamped log entry attached to a span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEvent {
    /// Virtual time the event occurred at.
    pub at_ns: u64,
    /// Free-form message.
    pub message: String,
}

/// Well-known tag keys used across the stack, and the resolver that
/// borrows them.
pub mod tag_keys {
    use super::TagKey;
    use std::borrow::Cow;

    /// Correlation identifier linking an async launch span to its execution
    /// span (CUPTI `correlation_id`).
    pub const CORRELATION_ID: &str = "correlation_id";
    /// Marks the span as the *launch* half of an async operation.
    pub const ASYNC_LAUNCH: &str = "async_launch";
    /// Marks the span as the *execution* half of an async operation.
    pub const ASYNC_EXECUTION: &str = "async_execution";
    /// Index of the framework layer a span describes.
    pub const LAYER_INDEX: &str = "layer_index";
    /// Framework layer type name (`Conv2D`, `Relu`, ...).
    pub const LAYER_TYPE: &str = "layer_type";
    /// Output shape of a layer, rendered `⟨n, c, h, w⟩`-style.
    pub const LAYER_SHAPE: &str = "layer_shape";
    /// Bytes allocated by the framework on behalf of a layer.
    pub const ALLOC_BYTES: &str = "alloc_bytes";
    /// Single-precision flop count metric (`flop_count_sp`).
    pub const FLOP_COUNT_SP: &str = "flop_count_sp";
    /// DRAM read bytes metric (`dram_read_bytes`).
    pub const DRAM_READ_BYTES: &str = "dram_read_bytes";
    /// DRAM write bytes metric (`dram_write_bytes`).
    pub const DRAM_WRITE_BYTES: &str = "dram_write_bytes";
    /// Achieved-occupancy metric, in `[0, 1]`.
    pub const ACHIEVED_OCCUPANCY: &str = "achieved_occupancy";
    /// CUDA grid dimensions, rendered `[x,y,z]`.
    pub const GRID: &str = "grid";
    /// CUDA block dimensions, rendered `[x,y,z]`.
    pub const BLOCK: &str = "block";
    /// CUDA stream the activity ran on.
    pub const STREAM: &str = "stream";
    /// Name of the profiler/tracer that produced the span.
    pub const TRACER: &str = "tracer";
    /// Batch size of the evaluation that produced the span.
    pub const BATCH_SIZE: &str = "batch_size";
    /// Name of the kernel a CUDA launch call starts.
    pub const KERNEL: &str = "kernel";
    /// Bytes a memory copy moves.
    pub const BYTES: &str = "bytes";

    /// Every well-known key: the keys [`resolve`] borrows.
    pub(crate) const ALL: [&str; 18] = [
        CORRELATION_ID,
        ASYNC_LAUNCH,
        ASYNC_EXECUTION,
        LAYER_INDEX,
        LAYER_TYPE,
        LAYER_SHAPE,
        ALLOC_BYTES,
        FLOP_COUNT_SP,
        DRAM_READ_BYTES,
        DRAM_WRITE_BYTES,
        ACHIEVED_OCCUPANCY,
        GRID,
        BLOCK,
        STREAM,
        TRACER,
        BATCH_SIZE,
        KERNEL,
        BYTES,
    ];

    /// The key for a tag read at run time (a decoded span, a store
    /// symbol, a caller's `&str`): a well-known key borrows its constant,
    /// any other key is owned. Keys from files and daemon clients are
    /// unbounded, so nothing is interned or leaked for them.
    ///
    /// ```
    /// use std::borrow::Cow;
    /// use xsp_trace::span::tag_keys;
    /// assert!(matches!(tag_keys::resolve("grid"), Cow::Borrowed(tag_keys::GRID)));
    /// assert!(matches!(tag_keys::resolve("note"), Cow::Owned(_)));
    /// ```
    pub fn resolve<'k>(key: impl Into<Cow<'k, str>>) -> TagKey {
        let key = key.into();
        match ALL.iter().find(|k| **k == key) {
            Some(k) => Cow::Borrowed(k),
            None => Cow::Owned(key.into_owned()),
        }
    }
}

/// A timed operation captured by some profiler in the stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Unique identifier (used as the span's reference).
    pub id: SpanId,
    /// Trace (evaluation run) this span belongs to.
    pub trace_id: TraceId,
    /// Operation name ("model_prediction", "conv2d_48/Conv2D",
    /// "volta_scudnn_128x64_relu_interior_nn_v1", ...).
    pub name: String,
    /// Stack level the producing profiler lives at.
    pub level: StackLevel,
    /// Start timestamp, virtual ns.
    pub start_ns: u64,
    /// End timestamp, virtual ns. Invariant: `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Parent reference when known at creation time.
    pub parent: Option<SpanId>,
    /// User-defined key/value annotations.
    pub tags: Vec<(TagKey, TagValue)>,
    /// Timestamped log entries.
    pub logs: Vec<LogEvent>,
}

impl Span {
    /// Duration in nanoseconds.
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration in milliseconds.
    #[inline]
    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }

    /// Looks up a tag by key.
    pub fn tag(&self, key: &str) -> Option<&TagValue> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether this span is the launch half of an async operation.
    pub fn is_async_launch(&self) -> bool {
        matches!(self.tag(tag_keys::ASYNC_LAUNCH), Some(TagValue::Bool(true)))
    }

    /// Whether this span is the execution half of an async operation.
    pub fn is_async_execution(&self) -> bool {
        matches!(
            self.tag(tag_keys::ASYNC_EXECUTION),
            Some(TagValue::Bool(true))
        )
    }

    /// The correlation id, if the span participates in async correlation.
    pub fn correlation_id(&self) -> Option<u64> {
        self.tag(tag_keys::CORRELATION_ID).and_then(|v| v.as_u64())
    }

    /// Whether this span's interval fully contains `other`'s
    /// (`start ≤ other.start` and `other.end ≤ end`).
    pub fn contains(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns <= self.end_ns
    }
}

/// Read access to one span's fields without owning a [`Span`]: what the
/// span writers in [`crate::export`] encode. A borrowed span and a
/// [`SpanStore`](crate::store::SpanStore) row ([`SpanView`](crate::store::SpanView),
/// also a correlated store's row with its verdict) implement it, so every
/// container is written by the same encoders, byte for byte.
pub trait SpanFields {
    /// Span id.
    fn id(&self) -> SpanId;
    /// Evaluation-run id.
    fn trace_id(&self) -> TraceId;
    /// Operation name.
    fn name(&self) -> &str;
    /// Stack level.
    fn level(&self) -> StackLevel;
    /// Start timestamp, ns.
    fn start_ns(&self) -> u64;
    /// End timestamp, ns.
    fn end_ns(&self) -> u64;
    /// Parent reference.
    fn parent(&self) -> Option<SpanId>;
    /// How many tags [`SpanFields::tags`] yields.
    fn tag_count(&self) -> usize;
    /// The tags, borrowed, in order.
    fn tags(&self) -> impl Iterator<Item = (&str, TagRef<'_>)> + Clone;
    /// How many log events [`SpanFields::logs`] yields.
    fn log_count(&self) -> usize;
    /// The log events as `(at_ns, message)`, in order.
    fn logs(&self) -> impl Iterator<Item = (u64, &str)>;
}

impl SpanFields for &Span {
    fn id(&self) -> SpanId {
        self.id
    }

    fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn level(&self) -> StackLevel {
        self.level
    }

    fn start_ns(&self) -> u64 {
        self.start_ns
    }

    fn end_ns(&self) -> u64 {
        self.end_ns
    }

    fn parent(&self) -> Option<SpanId> {
        self.parent
    }

    fn tag_count(&self) -> usize {
        self.tags.len()
    }

    fn tags(&self) -> impl Iterator<Item = (&str, TagRef<'_>)> + Clone {
        self.tags.iter().map(|(k, v)| (&**k, TagRef::from(v)))
    }

    fn log_count(&self) -> usize {
        self.logs.len()
    }

    fn logs(&self) -> impl Iterator<Item = (u64, &str)> {
        self.logs.iter().map(|l| (l.at_ns, l.message.as_str()))
    }
}

#[cfg(test)]
impl Span {
    /// Each tag key, with whether it is borrowed.
    pub(crate) fn key_borrows(&self) -> Vec<(&str, bool)> {
        self.tags
            .iter()
            .map(|(k, _)| (&**k, matches!(k, Cow::Borrowed(_))))
            .collect()
    }
}

/// Builder for [`Span`]s; the only way user code creates spans.
///
/// ```
/// use xsp_trace::{SpanBuilder, StackLevel, TraceId};
/// let span = SpanBuilder::new("model_prediction", StackLevel::Model, TraceId(1))
///     .start(100)
///     .tag("batch_size", 256u64)
///     .finish(500);
/// assert_eq!(span.duration_ns(), 400);
/// ```
#[derive(Debug)]
pub struct SpanBuilder {
    span: Span,
}

impl SpanBuilder {
    /// Starts building a span with the given name, level and trace.
    pub fn new(name: impl Into<String>, level: StackLevel, trace_id: TraceId) -> Self {
        Self {
            span: Span {
                id: SpanId::next(),
                trace_id,
                name: name.into(),
                level,
                start_ns: 0,
                end_ns: 0,
                parent: None,
                tags: Vec::new(),
                logs: Vec::new(),
            },
        }
    }

    /// Sets the start timestamp.
    pub fn start(mut self, at_ns: u64) -> Self {
        self.span.start_ns = at_ns;
        self
    }

    /// Sets the parent reference.
    pub fn parent(mut self, parent: SpanId) -> Self {
        self.span.parent = Some(parent);
        self
    }

    /// Sets the parent reference from an `Option`.
    pub fn maybe_parent(mut self, parent: Option<SpanId>) -> Self {
        self.span.parent = parent;
        self
    }

    /// Reserves room for exactly `tags` tags: a producer that knows how
    /// many tags its span carries allocates the list once, at its final
    /// size, instead of growing it by doubling.
    pub fn tag_capacity(mut self, tags: usize) -> Self {
        self.span.tags.reserve_exact(tags);
        self
    }

    /// Attaches a tag. A `&'static str` key (a [`tag_keys`] constant or a
    /// literal) is borrowed; a `String` key is owned.
    pub fn tag(mut self, key: impl Into<TagKey>, value: impl Into<TagValue>) -> Self {
        self.span.tags.push((key.into(), value.into()));
        self
    }

    /// Appends a log event.
    pub fn log(mut self, at_ns: u64, message: impl Into<String>) -> Self {
        self.span.logs.push(LogEvent {
            at_ns,
            message: message.into(),
        });
        self
    }

    /// The id the finished span will carry (useful for pre-registering
    /// children).
    pub fn id(&self) -> SpanId {
        self.span.id
    }

    /// Finishes the span at `end_ns`.
    ///
    /// # Panics
    /// Panics if `end_ns` precedes the start timestamp.
    pub fn finish(mut self, end_ns: u64) -> Span {
        assert!(
            end_ns >= self.span.start_ns,
            "span '{}' would end ({end_ns}) before it starts ({})",
            self.span.name,
            self.span.start_ns
        );
        self.span.end_ns = end_ns;
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &str, level: StackLevel, s: u64, e: u64) -> Span {
        SpanBuilder::new(name, level, TraceId(0)).start(s).finish(e)
    }

    #[test]
    fn span_ids_are_unique() {
        let a = mk("a", StackLevel::Model, 0, 1);
        let b = mk("b", StackLevel::Model, 0, 1);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn scoped_ids_are_deterministic_across_threads() {
        let on_main = with_span_id_scope(42, || vec![SpanId::next(), SpanId::next()]);
        let on_thread =
            std::thread::spawn(|| with_span_id_scope(42, || vec![SpanId::next(), SpanId::next()]))
                .join()
                .unwrap();
        assert_eq!(on_main, on_thread);
    }

    #[test]
    fn scoped_ids_do_not_collide_with_global_ids() {
        let global = SpanId::next();
        let scoped = with_span_id_scope(0, SpanId::next);
        assert!(
            scoped.0 >= 1 << 32,
            "scoped ids live above the global range"
        );
        assert!(global.0 < 1 << 32);
    }

    #[test]
    fn scopes_nest_and_restore() {
        with_span_id_scope(1, || {
            let outer_first = SpanId::next();
            let inner = with_span_id_scope(2, SpanId::next);
            let outer_second = SpanId::next();
            assert_eq!(outer_second.0, outer_first.0 + 1, "outer counter resumes");
            assert_ne!(inner.0 >> 32, outer_first.0 >> 32, "inner scope differs");
        });
        // after the scope exits, allocation falls back to the global counter
        assert!(SpanId::next().0 < 1 << 32);
    }

    #[test]
    fn duration_is_end_minus_start() {
        let s = mk("x", StackLevel::Layer, 10, 250);
        assert_eq!(s.duration_ns(), 240);
        assert!((s.duration_ms() - 240.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "would end")]
    fn finish_before_start_panics() {
        let _ = SpanBuilder::new("bad", StackLevel::Model, TraceId(0))
            .start(100)
            .finish(50);
    }

    #[test]
    fn containment() {
        let outer = mk("outer", StackLevel::Layer, 0, 100);
        let inner = mk("inner", StackLevel::Kernel, 10, 90);
        let crossing = mk("crossing", StackLevel::Kernel, 50, 150);
        assert!(outer.contains(&inner));
        assert!(!outer.contains(&crossing));
        assert!(outer.contains(&outer.clone()));
    }

    #[test]
    fn tags_roundtrip() {
        let s = SpanBuilder::new("k", StackLevel::Kernel, TraceId(0))
            .start(0)
            .tag(tag_keys::CORRELATION_ID, 42u64)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .tag("note", "hello")
            .tag("occ", 0.5f64)
            .finish(1);
        assert_eq!(s.correlation_id(), Some(42));
        assert!(s.is_async_launch());
        assert!(!s.is_async_execution());
        assert_eq!(s.tag("note").unwrap().as_str(), Some("hello"));
        assert_eq!(s.tag("occ").unwrap().as_f64(), Some(0.5));
        assert_eq!(s.tag("missing"), None);
    }

    #[test]
    fn level_ranks_are_ordered_top_down() {
        let ranks: Vec<u8> = StackLevel::ALL.iter().map(|l| l.rank()).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted);
        assert_eq!(StackLevel::Model.rank(), 1, "paper: level 1 is the model");
    }

    #[test]
    fn tag_value_conversions() {
        assert_eq!(TagValue::from(-3i64).as_u64(), None);
        assert_eq!(TagValue::from(3i64).as_u64(), Some(3));
        assert_eq!(TagValue::from(3u64).as_f64(), Some(3.0));
        assert_eq!(TagValue::from(true).as_f64(), None);
        assert_eq!(TagValue::from("s").as_str(), Some("s"));
    }

    #[test]
    fn every_well_known_key_resolves_borrowed() {
        for key in tag_keys::ALL {
            for resolved in [tag_keys::resolve(key), tag_keys::resolve(key.to_owned())] {
                assert!(matches!(resolved, Cow::Borrowed(k) if k == key), "{key}");
            }
        }
        let mut distinct = tag_keys::ALL.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            tag_keys::ALL.len(),
            "no key is listed twice"
        );
    }

    #[test]
    fn an_unknown_key_resolves_owned() {
        for key in ["note", "", "Grid", "grid ", "kernel_name"] {
            let resolved = tag_keys::resolve(key);
            assert!(matches!(&resolved, Cow::Owned(k) if k == key), "{key}");
        }
    }

    #[test]
    fn the_builder_borrows_static_keys_and_values() {
        let s = SpanBuilder::new("k", StackLevel::Kernel, TraceId(0))
            .tag(tag_keys::TRACER, "cupti_activity")
            .tag(String::from("note"), String::from("run time"))
            .finish(0);
        assert!(matches!(
            s.tags[0],
            (Cow::Borrowed(_), TagValue::Str(Cow::Borrowed(_)))
        ));
        assert!(matches!(
            s.tags[1],
            (Cow::Owned(_), TagValue::Str(Cow::Owned(_)))
        ));
    }

    #[test]
    fn logs_are_recorded() {
        let s = SpanBuilder::new("op", StackLevel::Model, TraceId(0))
            .start(0)
            .log(5, "checkpoint")
            .finish(10);
        assert_eq!(s.logs.len(), 1);
        assert_eq!(s.logs[0].at_ns, 5);
    }
}
