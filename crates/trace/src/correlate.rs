//! Offline trace correlation (§III-A).
//!
//! Correlation is one algorithm, run once per evaluation run:
//!
//! 1. **Async merge** — asynchronous operations (GPU kernels, async
//!    memcpy) appear as *two* spans: a launch span captured on the CPU
//!    timeline (CUPTI callback API) and an execution span on the GPU timeline
//!    (CUPTI activity API), linked by a `correlation_id` tag. Per the paper,
//!    "XSP uses the launch span's parent as the parent of the asynchronous
//!    function and uses the execution span to get the performance
//!    information": each pair becomes one span with the execution's timing,
//!    the launch's parent, and the launch tags the execution lacks.
//!
//! 2. **Parent reconstruction** — profilers at different stack levels cannot
//!    see each other, so e.g. kernel spans arrive without a layer parent.
//!    Every span without an explicit parent gets the unique span one level
//!    up (among levels present) whose interval contains it, found through a
//!    per-level [`IntervalTree`]. Ambiguities (several containing
//!    candidates, i.e. parallel events) are reported so the caller can
//!    re-run with serialized execution (`CUDA_LAUNCH_BLOCKING=1`).
//!
//! The [`CorrelationEngine`] runs this pass over either span container: an
//! owned [`Trace`] ([`CorrelationEngine::correlate`]) or a columnar
//! [`SpanStore`] ([`CorrelationEngine::correlate_store`] and the per-run
//! [`StoreCorrelationCache`], which keep only the pass's verdicts until
//! spans are asked for). The pass reads a run through a small positional
//! view and writes its verdicts into an engine-owned buffer, so both
//! containers get their merge, parent and ambiguity results from the same
//! code. For an owned trace one private step turns a run's verdicts into
//! the plain [`Span`]s of a [`CorrelatedTrace`], moving them out of the
//! `Trace` without cloning; a store keeps its verdicts in a
//! [`StoreCorrelationCache`] and is written through them as a
//! [`CorrelatedStore`], one store view per surviving span, with no
//! owned span built. Both fold a launch's tags into its execution by one
//! rule, and index parents and children by one rule. Interval trees are
//! built *lazily*: a level's tree is built on the first probe against it
//! and cached for the rest of the run, so levels nothing probes (notably
//! the kernel level, which holds most spans but can never be anyone's
//! parent) never pay for construction. [`reconstruct_parents`] is the
//! borrowing wrapper the offline paths and tests use.

use crate::export::ValidatedSpanBinary;
use crate::fxhash::FxHashMap;
use crate::interval::{Interval, IntervalTree};
use crate::server::Trace;
use crate::span::{tag_keys, Span, SpanId, StackLevel, TraceId};
use crate::store::{SpanStore, SpanView, TagRef, HAS_CID, IS_EXEC, IS_LAUNCH};
use std::sync::OnceLock;

/// Ambiguities discovered during parent reconstruction.
#[derive(Debug, Clone, Default)]
pub struct AmbiguityReport {
    /// Spans with more than one containing candidate parent, along with all
    /// candidates. Best-effort resolution picked the tightest interval.
    pub ambiguous: Vec<(SpanId, Vec<SpanId>)>,
    /// Spans below the top level with no containing candidate at the level
    /// above (typically execution spans that slid past their layer when the
    /// launch interval was unavailable).
    pub orphans: Vec<SpanId>,
}

impl AmbiguityReport {
    /// Whether every parent was assigned uniquely.
    pub fn is_clean(&self) -> bool {
        self.ambiguous.is_empty() && self.orphans.is_empty()
    }

    /// Whether a serialized re-run (e.g. `CUDA_LAUNCH_BLOCKING=1`) is needed
    /// to obtain the missing correlation information (§III-A).
    pub fn needs_serialized_rerun(&self) -> bool {
        !self.ambiguous.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: AmbiguityReport) {
        self.ambiguous.extend(other.ambiguous);
        self.orphans.extend(other.orphans);
    }
}

/// A fully correlated trace: plain [`Span`]s whose `parent` is resolved
/// (where one exists), with async pairs merged.
///
/// The span table comes with a `(trace id, span id) → index` map, the
/// adjacency by index that the spans' `parent` fields induce, and the root
/// set. A parent reference resolves only within its span's own run, and a
/// repeated id resolves to its first occurrence, so the adjacency is a
/// forest: a walk from the roots stays in one run and visits each span at
/// most once, even when runs repeat span ids (serving steps replay one
/// memoized run) or a capture repeats an id.
///
/// The [`CorrelationEngine`] builds the table at once
/// ([`CorrelatedTrace::new`]). A trace over a validated `.xspb` stream of
/// spans a correlation already produced
/// ([`CorrelatedTrace::from_validated`], the profile cache's reload)
/// decodes and indexes it on first access instead, once, behind a
/// [`OnceLock`]; until then [`CorrelatedTrace::len`] answers from the
/// validation walk. The span table is private; the only mutation the
/// pipeline needs — re-parenting a span after a serialized re-run — goes
/// through [`CorrelatedTrace::set_parent`], which keeps every index
/// coherent.
#[derive(Debug, Clone, Default)]
pub struct CorrelatedTrace {
    /// The span table and its indexes, built at construction or on first
    /// access.
    table: OnceLock<SpanTable>,
    /// The stream a table built on first access decodes.
    encoded: Option<ValidatedSpanBinary>,
    /// Reconstruction diagnostics.
    pub ambiguities: AmbiguityReport,
}

/// The spans of a [`CorrelatedTrace`] with their index.
#[derive(Debug, Clone, Default)]
struct SpanTable {
    /// Correlated spans in publication order.
    spans: Vec<Span>,
    forest: SpanForest,
}

impl SpanTable {
    fn new(spans: Vec<Span>) -> Self {
        let forest = SpanForest::new(spans.len(), |i| {
            let s = &spans[i];
            (s.trace_id, s.id, s.parent)
        });
        Self { spans, forest }
    }
}

/// The parent/child index over a sequence of correlated spans, built from
/// each span's (trace id, span id, parent) triple: `(trace id, span id) →
/// position` with the first occurrence winning, each span's parent
/// position, and — built on first use — the children of every span in
/// appearance order and the roots. A parent reference resolves only
/// within its span's own run and to the first occurrence of a repeated id,
/// so the children form a forest: a walk from the roots stays in one run
/// and visits each span at most once. An owned [`CorrelatedTrace`] and a
/// [`CorrelatedStore`] index their spans through this one rule.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanForest {
    index_of: FxHashMap<(TraceId, SpanId), usize>,
    /// Each span's parent position, when the parent is in its run.
    parents: Vec<Option<usize>>,
    /// Children and roots, derived from `parents`; a re-parent drops them.
    adjacency: OnceLock<Adjacency>,
}

/// The children of every span in one flat list, `children[starts[i] ..
/// starts[i + 1]]` for span `i`, ascending, and the ascending roots.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    starts: Vec<usize>,
    children: Vec<usize>,
    roots: Vec<usize>,
}

impl SpanForest {
    /// Indexes `len` spans whose triples `triple` returns by position.
    pub(crate) fn new(
        len: usize,
        triple: impl Fn(usize) -> (TraceId, SpanId, Option<SpanId>),
    ) -> Self {
        let mut index_of = FxHashMap::default();
        index_of.reserve(len);
        for i in 0..len {
            let (trace_id, id, _) = triple(i);
            index_of.entry((trace_id, id)).or_insert(i);
        }
        let parents = (0..len)
            .map(|i| {
                let (trace_id, _, parent) = triple(i);
                index_of.get(&(trace_id, parent?)).copied()
            })
            .collect();
        Self {
            index_of,
            parents,
            adjacency: OnceLock::new(),
        }
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| {
            // A counting sort by parent: each parent's child count, then
            // where its children start, then every child in position order,
            // which leaves each entry at the start of the next parent's.
            let n = self.parents.len();
            let mut starts = vec![0usize; n + 1];
            for &p in self.parents.iter().flatten() {
                starts[p] += 1;
            }
            let mut total = 0;
            for start in &mut starts {
                (*start, total) = (total, total + *start);
            }
            let mut children = vec![0usize; total];
            let mut roots = Vec::with_capacity(n - total);
            for (i, parent) in self.parents.iter().enumerate() {
                match *parent {
                    Some(p) => {
                        children[starts[p]] = i;
                        starts[p] += 1;
                    }
                    None => roots.push(i),
                }
            }
            starts.copy_within(0..n, 1);
            starts[0] = 0;
            Adjacency {
                starts,
                children,
                roots,
            }
        })
    }

    /// Positions of the spans with no parent in their run, ascending.
    pub(crate) fn roots(&self) -> &[usize] {
        &self.adjacency().roots
    }

    /// Positions of the children of the span at `idx`, ascending.
    pub(crate) fn children(&self, idx: usize) -> &[usize] {
        let adjacency = self.adjacency();
        &adjacency.children[adjacency.starts[idx]..adjacency.starts[idx + 1]]
    }

    fn parent(&self, idx: usize) -> Option<usize> {
        self.parents[idx]
    }

    fn position(&self, trace_id: TraceId, id: SpanId) -> Option<usize> {
        self.index_of.get(&(trace_id, id)).copied()
    }

    /// Re-parents the span at `idx` of run `trace_id` to `parent`.
    fn set_parent(&mut self, idx: usize, trace_id: TraceId, parent: SpanId) {
        let new = self.position(trace_id, parent);
        if self.parents[idx] != new {
            self.parents[idx] = new;
            self.adjacency = OnceLock::new();
        }
    }
}

impl CorrelatedTrace {
    /// Indexes correlated spans (used by the engine and by tests that
    /// assemble traces by hand).
    pub fn new(spans: Vec<Span>, ambiguities: AmbiguityReport) -> Self {
        Self {
            table: OnceLock::from(SpanTable::new(spans)),
            encoded: None,
            ambiguities,
        }
    }

    /// A trace over a validated stream of spans a correlation already
    /// produced — async pairs merged, every resolved parent written into
    /// its span — decoded and indexed on first access. Its ambiguity report
    /// is empty: a stream carries no diagnostics.
    pub fn from_validated(encoded: ValidatedSpanBinary) -> Self {
        Self {
            table: OnceLock::new(),
            encoded: Some(encoded),
            ambiguities: AmbiguityReport::default(),
        }
    }

    fn table(&self) -> &SpanTable {
        self.table.get_or_init(|| {
            SpanTable::new(
                self.encoded
                    .as_ref()
                    .map_or_else(Vec::new, ValidatedSpanBinary::decode),
            )
        })
    }

    /// All correlated spans, in publication order.
    pub fn spans(&self) -> &[Span] {
        &self.table().spans
    }

    /// Iterates the correlated spans in publication order (the view
    /// exporters stream).
    pub fn iter_spans(&self) -> impl Iterator<Item = &Span> {
        self.spans().iter()
    }

    /// Spans at the given level.
    pub fn at_level(&self, level: StackLevel) -> impl Iterator<Item = &Span> {
        self.iter_spans().filter(move |s| s.level == level)
    }

    /// The parent/child index over the spans.
    pub(crate) fn forest(&self) -> &SpanForest {
        &self.table().forest
    }

    /// Direct children of the span at `idx`, in appearance order.
    pub fn children_of(&self, idx: usize) -> impl Iterator<Item = &Span> {
        let table = self.table();
        table.forest.children(idx).iter().map(|&i| &table.spans[i])
    }

    /// Indices of the direct children of the span at `idx`, in appearance
    /// order.
    pub fn child_indices(&self, idx: usize) -> &[usize] {
        self.forest().children(idx)
    }

    /// Indices of spans whose parent is unset or absent from their run
    /// (ascending) — the forest roots exporters traverse from.
    pub fn root_indices(&self) -> &[usize] {
        self.forest().roots()
    }

    /// The index of span `id` of run `trace_id` (its first occurrence, if
    /// the run repeats the id).
    pub fn position(&self, trace_id: TraceId, id: SpanId) -> Option<usize> {
        self.forest().position(trace_id, id)
    }

    /// The index of the parent of the span at `idx`, when that parent is
    /// present in the span's run.
    pub fn parent_index(&self, idx: usize) -> Option<usize> {
        self.forest().parent(idx)
    }

    /// Re-parents the span at `idx`, keeping the span table, adjacency and
    /// root set coherent — the pipeline uses this to graft the serialized
    /// re-run's unambiguous kernel→layer assignment onto an async trace.
    pub fn set_parent(&mut self, idx: usize, parent: SpanId) {
        self.table();
        let table = self.table.get_mut().expect("the table was just built");
        table.spans[idx].parent = Some(parent);
        let trace_id = table.spans[idx].trace_id;
        table.forest.set_parent(idx, trace_id, parent);
    }

    /// The run id of the first span; a trace not yet decoded answers from
    /// its validation walk.
    pub fn first_trace_id(&self) -> Option<TraceId> {
        match (self.table.get(), &self.encoded) {
            (None, Some(encoded)) => encoded.first_trace_id(),
            _ => self.spans().first().map(|s| s.trace_id),
        }
    }

    /// Total number of spans; a trace not yet decoded answers from its
    /// validation walk.
    pub fn len(&self) -> usize {
        match (self.table.get(), &self.encoded) {
            (None, Some(encoded)) => encoded.len(),
            _ => self.spans().len(),
        }
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Number of stack levels: the size of the per-level engine state.
const LEVELS: usize = StackLevel::ALL.len();

/// A span's role in async correlation.
#[derive(Clone, Copy)]
enum AsyncRole {
    /// Launch half of an async pair (`async_launch` only), with its cid.
    Launch(u64),
    /// Execution half (`async_execution` only), with its cid.
    Execution(u64),
    /// No async tags, no cid, or both flags (an already-merged capture).
    Plain,
}

impl AsyncRole {
    /// The single definition of the pairing semantics for a span with a
    /// correlation id. A span carrying *both* flags is an already-merged
    /// pair from a previous correlation (e.g. a re-imported span-JSON-lines
    /// capture, where the execution span absorbed the launch's tags); it
    /// takes part in no pairing, which makes re-correlation idempotent.
    fn of(cid: u64, launch: bool, execution: bool) -> Self {
        match (launch, execution) {
            (true, false) => AsyncRole::Launch(cid),
            (false, true) => AsyncRole::Execution(cid),
            _ => AsyncRole::Plain,
        }
    }
}

/// What the run's spans say about one correlation id.
#[derive(Clone, Copy, Default)]
struct AsyncPair {
    /// Position of the last launch half carrying the id.
    launch: Option<u32>,
    /// Whether an execution half carries the id.
    has_execution: bool,
}

/// The correlation pass's result for one surviving span of a run.
#[derive(Clone, Copy)]
struct Verdict {
    /// Position of the span in the run (the execution half of a pair).
    src: u32,
    /// Parent after correlation: explicit, the paired launch's, or
    /// reconstructed.
    parent: Option<SpanId>,
    /// Position of the launch half folded into this span.
    launch: Option<u32>,
}

/// What the correlation pass reads of one evaluation run, by position in
/// the run — implemented once per span container.
trait RunView {
    fn len(&self) -> usize;
    fn role(&self, pos: usize) -> AsyncRole;
    fn id(&self, pos: usize) -> SpanId;
    fn level(&self, pos: usize) -> StackLevel;
    fn interval(&self, pos: usize) -> (u64, u64);
    fn parent(&self, pos: usize) -> Option<SpanId>;
}

/// One run of an owned span table: the table plus the run's indices.
struct SpanRun<'a> {
    spans: &'a mut [Span],
    idxs: &'a [usize],
}

impl SpanRun<'_> {
    fn at(&self, pos: usize) -> &Span {
        &self.spans[self.idxs[pos]]
    }

    /// Moves the span out of the table, leaving an empty span that owns no
    /// heap memory: spans leave in run order, which differs from table
    /// order when runs interleave.
    fn take(&mut self, pos: usize) -> Span {
        let empty = Span {
            id: SpanId(0),
            trace_id: TraceId(0),
            name: String::new(),
            level: StackLevel::Kernel,
            start_ns: 0,
            end_ns: 0,
            parent: None,
            tags: Vec::new(),
            logs: Vec::new(),
        };
        std::mem::replace(&mut self.spans[self.idxs[pos]], empty)
    }
}

impl RunView for SpanRun<'_> {
    fn len(&self) -> usize {
        self.idxs.len()
    }

    fn role(&self, pos: usize) -> AsyncRole {
        let s = self.at(pos);
        match s.correlation_id() {
            Some(cid) => AsyncRole::of(cid, s.is_async_launch(), s.is_async_execution()),
            None => AsyncRole::Plain,
        }
    }

    fn id(&self, pos: usize) -> SpanId {
        self.at(pos).id
    }

    fn level(&self, pos: usize) -> StackLevel {
        self.at(pos).level
    }

    fn interval(&self, pos: usize) -> (u64, u64) {
        let s = self.at(pos);
        (s.start_ns, s.end_ns)
    }

    fn parent(&self, pos: usize) -> Option<SpanId> {
        self.at(pos).parent
    }
}

/// One run bucket of a [`SpanStore`]: column reads, with the async role
/// taken from the facts the store derived from the tags at push time.
struct StoreRun<'a> {
    store: &'a SpanStore,
    idxs: &'a [u32],
}

impl RunView for StoreRun<'_> {
    fn len(&self) -> usize {
        self.idxs.len()
    }

    fn role(&self, pos: usize) -> AsyncRole {
        let info = self.store.async_info(self.idxs[pos]);
        if info.flags & HAS_CID == 0 {
            return AsyncRole::Plain;
        }
        AsyncRole::of(
            info.cid,
            info.flags & IS_LAUNCH != 0,
            info.flags & IS_EXEC != 0,
        )
    }

    fn id(&self, pos: usize) -> SpanId {
        self.store.id_at(self.idxs[pos])
    }

    fn level(&self, pos: usize) -> StackLevel {
        self.store.level_at(self.idxs[pos])
    }

    fn interval(&self, pos: usize) -> (u64, u64) {
        self.store.interval_at(self.idxs[pos])
    }

    fn parent(&self, pos: usize) -> Option<SpanId> {
        self.store.parent_at(self.idxs[pos])
    }
}

/// Turns one owned run's verdicts into spans, appended to `out` in run
/// order. Each span gets its verdict's parent, and a merged execution gets
/// its launch's tags through [`fold_launch_tags`]. A folded launch has no
/// verdict of its own, so it is still in place for every execution that
/// pairs with it.
fn spans_of_run(run: &mut SpanRun<'_>, verdicts: &[Verdict], out: &mut Vec<Span>) {
    for v in verdicts {
        let mut span = run.take(v.src as usize);
        span.parent = v.parent;
        if let Some(l) = v.launch {
            fold_launch_tags(&mut span, run.at(l as usize));
        }
        out.push(span);
    }
}

/// The tag half of the async merge: appends each launch tag whose key the
/// execution does not carry yet, in launch order, so the execution's own
/// values win and a key the launch repeats contributes its first value.
/// Keys go through [`tag_keys::resolve`], so a well-known one is borrowed.
/// A correlated store's [`SpanView`] yields the same tags without building
/// them.
fn fold_launch_tags(exec: &mut Span, launch: &Span) {
    for (key, value) in &launch.tags {
        if exec.tag(key).is_none() {
            exec.tags
                .push((tag_keys::resolve(&**key), TagRef::from(value).to_value()));
        }
    }
}

/// The correlation engine: one pass per evaluation run, plus the scratch
/// state it reuses — async roles, pair table, verdicts, per-level index
/// buckets and the lazy interval-tree cache.
///
/// One engine correlates any number of runs and traces; the scratch
/// buffers keep their capacity. Within one run, a level's tree is built on
/// the first probe against that level and cached for the rest of the run:
/// every child level below shares it, so the layer tree is built once for
/// all kernels and library calls, and levels nothing ever probes (the
/// kernel level — the largest — can never be a parent candidate) are never
/// built at all. [`CorrelationEngine::trees_built`] exposes the
/// construction count so tests can pin the laziness.
#[derive(Default)]
pub struct CorrelationEngine {
    /// Verdict indices of the run being correlated, per stack level,
    /// `StackLevel` rank as the slot.
    level_buckets: [Vec<usize>; LEVELS],
    /// Lazily built per-level trees for the run being correlated.
    trees: [Option<IntervalTree>; LEVELS],
    /// Cumulative count of tree constructions per level (across runs and
    /// traces) — observability for the laziness contract.
    trees_built: [usize; LEVELS],
    /// Async role of each span of the run, by position: derived once, since
    /// for owned spans it is a walk over the tags.
    roles: Vec<AsyncRole>,
    /// Correlation id → what the run holds of that async pair.
    pairs: FxHashMap<u64, AsyncPair>,
    /// The run's verdicts, in run order; reserved to the run's length.
    verdicts: Vec<Verdict>,
    /// Parent candidates of the span being reconstructed.
    candidates: Vec<usize>,
}

impl CorrelationEngine {
    /// Creates an engine with empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interval trees built at `level` so far.
    pub fn trees_built_at(&self, level: StackLevel) -> usize {
        self.trees_built[level.rank() as usize]
    }

    /// Total number of interval trees built so far.
    pub fn trees_built(&self) -> usize {
        self.trees_built.iter().sum()
    }

    /// Correlates every evaluation run of `trace` — async-pair merge plus
    /// parent reconstruction — consuming the trace so no span is cloned.
    ///
    /// Runs are processed independently in first-appearance order; the
    /// resulting span order, parent assignments and ambiguity report are
    /// identical to correlating each run's sub-trace on its own (the
    /// byte-identity goldens pin this).
    pub fn correlate(&mut self, trace: Trace) -> CorrelatedTrace {
        let (mut spans, runs) = trace.into_parts();
        let mut out = Vec::with_capacity(spans.len());
        let mut ambiguities = AmbiguityReport::default();
        for (_, idxs) in &runs {
            let mut run = SpanRun {
                spans: &mut spans,
                idxs,
            };
            self.correlate_run(&run, &mut ambiguities);
            spans_of_run(&mut run, &self.verdicts, &mut out);
        }
        CorrelatedTrace::new(out, ambiguities)
    }

    /// Correlates every run of `store` without building a single owned
    /// [`Span`]: the same pass as [`CorrelationEngine::correlate`], with
    /// async roles read from the store's pre-computed columns. Returns the
    /// verdicts of every run as a filled [`StoreCorrelationCache`], whose
    /// [`correlated`](StoreCorrelationCache::correlated) view writes the
    /// spans.
    pub fn correlate_store(&mut self, store: &SpanStore) -> StoreCorrelationCache {
        let mut cache = StoreCorrelationCache::new();
        cache.refresh(self, store);
        cache
    }

    /// The correlation pass over one run: merges async pairs, then
    /// reconstructs missing parents against the lazily built level trees.
    /// Leaves one [`Verdict`] per surviving span in `self.verdicts`, in run
    /// order, and reports orphans and ambiguities into `ambiguities`.
    fn correlate_run(&mut self, run: &impl RunView, ambiguities: &mut AmbiguityReport) {
        let Self {
            level_buckets,
            trees,
            trees_built,
            roles,
            pairs,
            verdicts,
            candidates,
        } = self;
        for bucket in level_buckets.iter_mut() {
            bucket.clear();
        }
        for tree in trees.iter_mut() {
            *tree = None;
        }
        let n = run.len();
        // Verdicts store positions as `u32`.
        u32::try_from(n).expect("a run's positions fit in u32");
        roles.clear();
        roles.reserve(n);
        verdicts.clear();
        verdicts.reserve(n);
        pairs.clear();

        // Classification: each span's role, and per correlation id the last
        // launch half and whether an execution half exists.
        for pos in 0..n {
            let role = run.role(pos);
            match role {
                AsyncRole::Launch(cid) => pairs.entry(cid).or_default().launch = Some(pos as u32),
                AsyncRole::Execution(cid) => pairs.entry(cid).or_default().has_execution = true,
                AsyncRole::Plain => {}
            }
            roles.push(role);
        }

        // Merge: a paired launch folds into its execution (timing from the
        // execution, parent from the launch); unpaired halves stay visible —
        // a launch whose kernel never ran, or an execution whose callback
        // was dropped, must reach the analysis. The per-level buckets fill
        // as verdicts land.
        for (pos, &role) in roles.iter().enumerate() {
            let launch = match role {
                AsyncRole::Execution(cid) => pairs[&cid].launch,
                AsyncRole::Launch(cid) if pairs[&cid].has_execution => continue,
                _ => None,
            };
            let parent = run.parent(launch.map_or(pos, |l| l as usize));
            level_buckets[run.level(pos).rank() as usize].push(verdicts.len());
            verdicts.push(Verdict {
                src: pos as u32,
                parent,
                launch,
            });
        }

        // Which levels exist in this run, ordered top to bottom.
        let mut present = [StackLevel::Application; LEVELS];
        let mut n_levels = 0;
        for level in StackLevel::ALL {
            if !level_buckets[level.rank() as usize].is_empty() {
                present[n_levels] = level;
                n_levels += 1;
            }
        }
        let levels = &present[..n_levels];

        for i in 0..verdicts.len() {
            let v = verdicts[i];
            if v.parent.is_some() {
                continue; // explicit reference wins
            }
            let src = v.src as usize;
            let Some(pos) = levels.iter().position(|&l| l == run.level(src)) else {
                continue;
            };
            if pos == 0 {
                continue; // top level present: no parent expected
            }
            // Probe intervals, in preference order: the launch interval for
            // async spans ("XSP uses the kernel launch span to associate it
            // with the parent layer span"), then the span's own execution
            // interval — needed when the parent profiler reports
            // device-anchored intervals, as TensorFlow's device tracer does.
            let own = run.interval(src);
            let anchor = v.launch.map_or(own, |l| run.interval(l as usize));
            let probes = [anchor, own];
            let probes = if anchor == own {
                &probes[..1]
            } else {
                &probes[..]
            };
            // Search the nearest level above first; when nothing there
            // contains the span (e.g. a memcpy issued during model-level
            // pre-processing, with no enclosing layer), walk further up the
            // stack.
            candidates.clear();
            'search: for level in levels[..pos].iter().rev() {
                let rank = level.rank() as usize;
                let tree = trees[rank].get_or_insert_with(|| {
                    trees_built[rank] += 1;
                    let intervals = level_buckets[rank].iter().map(|&j| {
                        let (s, e) = run.interval(verdicts[j].src as usize);
                        Interval::new(s, e, j)
                    });
                    IntervalTree::build(intervals.collect())
                });
                for &(lo, hi) in probes {
                    tree.containing_into(lo, hi, candidates);
                    // A span never parents itself (possible only with equal
                    // intervals at mixed levels, but be safe).
                    candidates.retain(|&c| c != i);
                    if !candidates.is_empty() {
                        break 'search;
                    }
                }
            }
            let id_of = |j: usize| run.id(verdicts[j].src as usize);
            let parent = match candidates.len() {
                0 => {
                    ambiguities.orphans.push(run.id(src));
                    continue;
                }
                1 => candidates[0],
                _ => {
                    let all = candidates.iter().map(|&c| id_of(c)).collect();
                    ambiguities.ambiguous.push((run.id(src), all));
                    // Best effort: tightest containing interval.
                    *candidates
                        .iter()
                        .min_by_key(|&&c| {
                            let (s, e) = run.interval(verdicts[c].src as usize);
                            e - s
                        })
                        .expect("nonempty")
                }
            };
            verdicts[i].parent = Some(id_of(parent));
        }
    }
}

/// One run's cached correlation: the run id and span count it was computed
/// at, plus the engine's verdicts and the run's ambiguity report.
struct CachedRun {
    trace_id: TraceId,
    /// Span count of the run bucket when the correlation was computed; a
    /// grown bucket invalidates this entry (runs are append-only, so a
    /// matching `(trace_id, len)` pair means an identical bucket).
    len: usize,
    /// Verdicts by position in the run bucket.
    verdicts: Vec<Verdict>,
    ambiguities: AmbiguityReport,
}

/// A per-run correlation cache over an append-only [`SpanStore`] — the
/// "finalized prefix" that makes repeat exports O(new spans).
///
/// [`StoreCorrelationCache::refresh`] walks the store's run buckets and
/// re-correlates only the runs whose span count changed since the last
/// refresh (runs are append-only: a bucket with the same run id and length
/// is bit-identical, so its cached verdicts still hold). The daemon's
/// resident sessions keep one of these per session: an `Export` request
/// with no new spans re-correlates nothing at all, and one that appended
/// spans to a single run pays exactly one correlation pass.
///
/// The cache is keyed by position, so it must be [`invalidate`]d whenever
/// the underlying store is rebuilt or cleared (e.g. after a quota spill) —
/// store indices restart from zero and a positional comparison would
/// wrongly validate stale entries.
///
/// [`invalidate`]: StoreCorrelationCache::invalidate
#[derive(Default)]
pub struct StoreCorrelationCache {
    runs: Vec<CachedRun>,
    passes: usize,
}

impl StoreCorrelationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of per-run correlation passes executed so far — the
    /// observability hook behind the daemon's O(new-spans) export contract
    /// (a repeat export with nothing new must not move this counter).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Number of runs currently cached.
    pub fn runs_cached(&self) -> usize {
        self.runs.len()
    }

    /// Drops every cached run. Call when the underlying store's indices
    /// are no longer those the cache was computed against (the store was
    /// cleared or rebuilt).
    pub fn invalidate(&mut self) {
        self.runs.clear();
    }

    /// Brings the cache up to date with `store`: cached runs whose id and
    /// span count still match are kept verbatim; everything from the first
    /// divergence on is re-correlated through `engine` (one pass per run).
    pub fn refresh(&mut self, engine: &mut CorrelationEngine, store: &SpanStore) {
        let buckets = store.run_buckets();
        let valid = self
            .runs
            .iter()
            .zip(buckets)
            .take_while(|(cached, (tid, idxs))| cached.trace_id == *tid && cached.len == idxs.len())
            .count();
        self.runs.truncate(valid);
        for (tid, idxs) in buckets.iter().skip(valid) {
            let mut ambiguities = AmbiguityReport::default();
            engine.correlate_run(&StoreRun { store, idxs }, &mut ambiguities);
            self.passes += 1;
            self.runs.push(CachedRun {
                trace_id: *tid,
                len: idxs.len(),
                verdicts: engine.verdicts.clone(),
                ambiguities,
            });
        }
    }

    /// The store as the cached verdicts see it: the spans
    /// [`CorrelationEngine::correlate`] yields for the store's spans, in
    /// the same order (runs correlate independently and the cache keeps
    /// bucket order), read as store rows, so only the refreshes paid
    /// correlation cost and nothing is copied. `store` must be the store of
    /// the last [`refresh`](StoreCorrelationCache::refresh).
    pub fn correlated<'a>(&'a self, store: &'a SpanStore) -> CorrelatedStore<'a> {
        debug_assert!(
            self.runs.len() == store.run_buckets().len()
                && self
                    .runs
                    .iter()
                    .zip(store.run_buckets())
                    .all(|(run, (tid, idxs))| run.trace_id == *tid && run.len == idxs.len()),
            "stale cache"
        );
        CorrelatedStore { cache: self, store }
    }
}

/// A [`SpanStore`] seen through its [`StoreCorrelationCache`]: one
/// [`SpanView`] with its verdict per span that survives correlation, in
/// the order an
/// owned trace's correlation lists the same spans. The exporters write it
/// as they write a [`CorrelatedTrace`], with the same bytes.
#[derive(Clone, Copy)]
pub struct CorrelatedStore<'a> {
    cache: &'a StoreCorrelationCache,
    store: &'a SpanStore,
}

impl<'a> CorrelatedStore<'a> {
    /// The surviving spans, run by run, each in its run's order: store
    /// views carrying their verdicts.
    pub fn rows(&self) -> impl Iterator<Item = SpanView<'a>> + 'a {
        let store = self.store;
        self.cache
            .runs
            .iter()
            .zip(store.run_buckets())
            .flat_map(move |(run, (_, idxs))| {
                run.verdicts.iter().map(move |v| {
                    let launch = v.launch.map(|l| idxs[l as usize]);
                    SpanView::with_verdict(store, idxs[v.src as usize], v.parent, launch)
                })
            })
    }

    /// Number of surviving spans.
    pub fn len(&self) -> usize {
        self.cache.runs.iter().map(|r| r.verdicts.len()).sum()
    }

    /// Whether no span survives (the store is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reconstruction diagnostics of every run, in run order.
    pub fn ambiguities(&self) -> AmbiguityReport {
        let mut report = AmbiguityReport::default();
        for run in &self.cache.runs {
            report.merge(run.ambiguities.clone());
        }
        report
    }
}

/// Merges async pairs and reconstructs the parent of every span lacking an
/// explicit reference, per evaluation run, and returns the correlated
/// trace.
///
/// For each stack level present in the trace, candidate parents for a child
/// at level `L` are spans at the *nearest* level above `L` that is present.
/// A unique containing candidate becomes the parent. Multiple candidates are
/// recorded in the [`AmbiguityReport`] (best-effort: tightest containing
/// interval wins), mirroring the paper's requirement of a serialized re-run
/// for parallel events.
///
/// This is the borrowing wrapper over [`CorrelationEngine::correlate`] (one
/// clone of the span table); callers that own their [`Trace`] should feed
/// the engine directly and pay no clone at all.
pub fn reconstruct_parents(trace: &Trace) -> CorrelatedTrace {
    CorrelationEngine::new().correlate(trace.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanFields;
    use crate::span::{SpanBuilder, TagValue, TraceId};

    fn span(name: &str, level: StackLevel, s: u64, e: u64) -> Span {
        SpanBuilder::new(name, level, TraceId(1)).start(s).finish(e)
    }

    fn launch(name: &str, cid: u64, s: u64, e: u64, parent: Option<SpanId>) -> Span {
        SpanBuilder::new(name, StackLevel::Kernel, TraceId(1))
            .start(s)
            .maybe_parent(parent)
            .tag(tag_keys::CORRELATION_ID, cid)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .finish(e)
    }

    fn exec(name: &str, cid: u64, s: u64, e: u64) -> Span {
        SpanBuilder::new(name, StackLevel::Kernel, TraceId(1))
            .start(s)
            .tag(tag_keys::CORRELATION_ID, cid)
            .tag(tag_keys::ASYNC_EXECUTION, true)
            .tag(tag_keys::FLOP_COUNT_SP, 1000u64)
            .finish(e)
    }

    #[test]
    fn async_pair_merges_to_execution_timing() {
        let l = launch("cudaLaunchKernel", 7, 100, 110, Some(SpanId(42)));
        let x = exec("convKernel", 7, 150, 400);
        let c = reconstruct_parents(&Trace::from_spans(vec![l, x]));
        assert_eq!(c.len(), 1);
        let m = &c.spans()[0];
        assert_eq!(m.start_ns, 150, "execution timing retained");
        assert_eq!(m.parent, Some(SpanId(42)), "parent from the launch");
        assert!(m.is_async_launch(), "the launch's flag folded in");
        assert_eq!(m.tag(tag_keys::FLOP_COUNT_SP).unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn folded_launch_tags_borrow_well_known_keys() {
        let mut l = launch("cudaLaunchKernel", 7, 100, 110, None);
        l.tags
            .push((tag_keys::KERNEL.to_owned().into(), "convKernel".into()));
        l.tags.push(("custom".into(), TagValue::U64(1)));
        let x = exec("convKernel", 7, 150, 400);
        let trace = Trace::from_spans(vec![l, x]);
        let folded = [
            ("correlation_id", true),
            ("async_execution", true),
            ("flop_count_sp", true),
            ("async_launch", true),
            ("kernel", true),
            ("custom", false),
        ];
        let owned = reconstruct_parents(&trace);
        assert_eq!(owned.spans()[0].key_borrows(), folded);
        // A store row yields the same folded tags, in the same order.
        let store = SpanStore::from_spans(trace.spans());
        let cache = CorrelationEngine::new().correlate_store(&store);
        let rows: Vec<Span> = cache.correlated(&store).rows().map(owned_row).collect();
        assert_eq!(rows, owned.spans());
    }

    /// An owned copy of a correlated store row, for comparing with the
    /// owned correlation.
    fn owned_row(row: SpanView<'_>) -> Span {
        Span {
            id: row.id(),
            trace_id: row.trace_id(),
            name: row.name().to_owned(),
            level: row.level(),
            start_ns: row.start_ns(),
            end_ns: row.end_ns(),
            parent: row.parent(),
            tags: row
                .tags()
                .map(|(k, v)| (tag_keys::resolve(k), v.to_value()))
                .collect(),
            logs: row
                .logs()
                .map(|(at_ns, message)| crate::span::LogEvent {
                    at_ns,
                    message: message.to_owned(),
                })
                .collect(),
        }
    }

    fn owned_rows(cache: &StoreCorrelationCache, store: &SpanStore) -> Vec<Span> {
        let correlated = cache.correlated(store);
        let rows: Vec<Span> = correlated.rows().map(owned_row).collect();
        assert_eq!(rows.len(), correlated.len());
        rows
    }

    #[test]
    fn unpaired_halves_pass_through() {
        let l = launch("cudaLaunchKernel", 1, 0, 5, None);
        let x = exec("kernel", 2, 10, 20);
        let c = reconstruct_parents(&Trace::from_spans(vec![l, x]));
        assert_eq!(c.len(), 2, "both unpaired halves kept");
        assert!(c
            .iter_spans()
            .all(|s| s.is_async_launch() != s.is_async_execution()));
    }

    #[test]
    fn reconstructs_kernel_to_layer_parent() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut layer1 = span("conv", StackLevel::Layer, 10, 400);
        layer1.parent = Some(mid);
        let l1 = layer1.id;
        let mut layer2 = span("relu", StackLevel::Layer, 420, 800);
        layer2.parent = Some(mid);
        // kernel launched inside layer1, executes way past layer1's end
        let l = launch("cudaLaunchKernel", 9, 50, 60, None);
        let x = exec("volta_scudnn", 9, 500, 900);
        let trace = Trace::from_spans(vec![model, layer1, layer2, l, x]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean(), "{:?}", c.ambiguities);
        let kernel = c.spans().iter().find(|s| s.name == "volta_scudnn").unwrap();
        assert_eq!(
            kernel.parent,
            Some(l1),
            "launch interval must bind kernel to layer1"
        );
    }

    #[test]
    fn explicit_parent_is_preserved() {
        let model = span("predict", StackLevel::Model, 0, 100);
        let mid = model.id;
        let mut layer = span("conv", StackLevel::Layer, 0, 100);
        layer.parent = Some(mid);
        let trace = Trace::from_spans(vec![model, layer]);
        let c = reconstruct_parents(&trace);
        let l = c.spans().iter().find(|s| s.name == "conv").unwrap();
        assert_eq!(l.parent, Some(mid));
    }

    #[test]
    fn skips_missing_levels() {
        // No layer-level spans: kernels bind directly to the model span.
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let k = span("kernel", StackLevel::Kernel, 100, 200);
        let trace = Trace::from_spans(vec![model, k]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean());
        let kernel = c.spans().iter().find(|s| s.name == "kernel").unwrap();
        assert_eq!(kernel.parent, Some(mid));
    }

    #[test]
    fn parallel_parents_are_flagged_ambiguous() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut a = span("layerA", StackLevel::Layer, 0, 500);
        a.parent = Some(mid);
        let mut b = span("layerB", StackLevel::Layer, 0, 600); // overlaps A
        b.parent = Some(mid);
        let a_id = a.id;
        let k = span("kernel", StackLevel::Kernel, 100, 200);
        let trace = Trace::from_spans(vec![model, a, b, k]);
        let c = reconstruct_parents(&trace);
        assert!(!c.ambiguities.is_clean());
        assert!(c.ambiguities.needs_serialized_rerun());
        assert_eq!(c.ambiguities.ambiguous.len(), 1);
        // best effort picked the tighter span (layerA)
        let kernel = c.spans().iter().find(|s| s.name == "kernel").unwrap();
        assert_eq!(kernel.parent, Some(a_id));
    }

    #[test]
    fn orphans_are_reported() {
        let model = span("predict", StackLevel::Model, 0, 100);
        let k = span("stray", StackLevel::Kernel, 500, 600); // outside model
        let trace = Trace::from_spans(vec![model, k]);
        let c = reconstruct_parents(&trace);
        assert_eq!(c.ambiguities.orphans.len(), 1);
    }

    #[test]
    fn uncovered_kernel_walks_up_to_model_level() {
        // An H2D copy during pre-processing: layers exist elsewhere in the
        // trace but none contains the copy; it must bind to the model span.
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut layer = span("conv", StackLevel::Layer, 300, 600);
        layer.parent = Some(mid);
        let copy = span("cudaMemcpyH2D", StackLevel::Kernel, 50, 120);
        let trace = Trace::from_spans(vec![model, layer, copy]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean(), "{:?}", c.ambiguities);
        let m = c
            .spans()
            .iter()
            .find(|s| s.name == "cudaMemcpyH2D")
            .unwrap();
        assert_eq!(m.parent, Some(mid));
    }

    #[test]
    fn runs_are_correlated_independently() {
        let mut m1 = span("predict", StackLevel::Model, 0, 100);
        m1.trace_id = TraceId(1);
        let mut k1 = span("k", StackLevel::Kernel, 10, 20);
        k1.trace_id = TraceId(1);
        // run 2 overlaps run 1 in virtual time but must not cross-link
        let mut m2 = span("predict", StackLevel::Model, 0, 100);
        m2.trace_id = TraceId(2);
        let m2_id = m2.id;
        let mut k2 = span("k", StackLevel::Kernel, 10, 20);
        k2.trace_id = TraceId(2);
        let m1_id = m1.id;
        let trace = Trace::from_spans(vec![m1, k1, m2, k2]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean());
        let parents: Vec<Option<SpanId>> = c
            .spans()
            .iter()
            .filter(|s| s.level == StackLevel::Kernel)
            .map(|s| s.parent)
            .collect();
        assert_eq!(parents, vec![Some(m1_id), Some(m2_id)]);
    }

    #[test]
    fn kernel_level_tree_is_never_built() {
        // The laziness contract behind the hot-path win: the kernel level
        // holds the bulk of the spans but can never be a parent candidate,
        // so its interval tree must never be constructed.
        let model = span("predict", StackLevel::Model, 0, 100_000);
        let mid = model.id;
        let mut spans = vec![model];
        for i in 0..50u64 {
            let mut layer = span("conv", StackLevel::Layer, i * 1000, i * 1000 + 900);
            layer.parent = Some(mid);
            spans.push(layer);
        }
        for i in 0..500u64 {
            let at = (i % 50) * 1000;
            spans.push(launch("cudaLaunchKernel", i, at + 10, at + 20, None));
            spans.push(exec("volta_kernel", i, at + 30, at + 800));
        }
        let mut engine = CorrelationEngine::new();
        let c = engine.correlate(Trace::from_spans(spans));
        assert!(c.ambiguities.is_clean(), "{:?}", c.ambiguities);
        assert_eq!(
            engine.trees_built_at(StackLevel::Kernel),
            0,
            "kernel tree must stay lazy"
        );
        assert_eq!(engine.trees_built_at(StackLevel::Layer), 1);
        assert_eq!(
            engine.trees_built_at(StackLevel::Model),
            0,
            "every kernel found a layer, so the model tree is never probed"
        );
    }

    #[test]
    fn engine_scratch_is_reusable_across_traces() {
        let mk = || {
            let model = span("predict", StackLevel::Model, 0, 1000);
            let k = span("kernel", StackLevel::Kernel, 100, 200);
            Trace::from_spans(vec![model, k])
        };
        let mut engine = CorrelationEngine::new();
        let a = engine.correlate(mk());
        let b = engine.correlate(mk());
        assert_eq!(a.len(), b.len());
        assert!(b.ambiguities.is_clean());
        assert_eq!(engine.trees_built_at(StackLevel::Model), 2);
    }

    #[test]
    fn indexed_lookups_match_linear_semantics() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut layer = span("conv", StackLevel::Layer, 10, 400);
        layer.parent = Some(mid);
        let lid = layer.id;
        let k1 = span("k1", StackLevel::Kernel, 20, 100);
        let k2 = span("k2", StackLevel::Kernel, 120, 300);
        let trace = Trace::from_spans(vec![model, layer, k1, k2]);
        let c = reconstruct_parents(&trace);
        assert_eq!(c.position(TraceId(1), lid), Some(1));
        assert_eq!(c.position(TraceId(2), lid), None, "lookups stay in a run");
        let kids: Vec<&str> = c.children_of(1).map(|k| k.name.as_str()).collect();
        assert_eq!(kids, ["k1", "k2"]);
        assert_eq!(c.parent_index(2), Some(1));
        assert_eq!(c.root_indices(), &[0], "only the model span is a root");
    }

    #[test]
    fn set_parent_keeps_indexes_coherent() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut a = span("layerA", StackLevel::Layer, 0, 400);
        a.parent = Some(mid);
        let a_id = a.id;
        let mut b = span("layerB", StackLevel::Layer, 500, 900);
        b.parent = Some(mid);
        let b_id = b.id;
        let k = span("kernel", StackLevel::Kernel, 100, 200);
        let trace = Trace::from_spans(vec![model, a, b, k]);
        let mut c = reconstruct_parents(&trace);
        let kidx = 3;
        assert_eq!(c.spans()[kidx].parent, Some(a_id));
        c.set_parent(kidx, b_id);
        assert_eq!(c.spans()[kidx].parent, Some(b_id));
        assert_eq!(c.spans()[kidx].parent, Some(b_id));
        assert!(c.child_indices(1).is_empty());
        assert_eq!(c.child_indices(2), &[kidx]);
        assert_eq!(c.root_indices(), &[0]);
        // re-parenting to an absent span makes it a root, and back again
        c.set_parent(kidx, SpanId(u64::MAX));
        assert_eq!(c.root_indices(), &[0, kidx]);
        assert!(c.child_indices(2).is_empty());
        c.set_parent(kidx, a_id);
        assert_eq!(c.root_indices(), &[0]);
        assert_eq!(c.child_indices(1), &[kidx]);
    }

    #[test]
    fn each_run_builds_its_own_model_tree_and_never_the_kernel_tree() {
        // Runs correlate one after another on the engine's reused scratch:
        // the kernel-level tree stays unbuilt run after run, each run
        // builds its own model tree, and the output groups each run's
        // spans in first-appearance run order, not id order, although the
        // runs interleave in publication order.
        let (mut models, mut kernels) = (Vec::new(), Vec::new());
        for tid in [3u64, 1, 2] {
            let mut m = span("predict", StackLevel::Model, 0, 1000);
            m.trace_id = TraceId(tid);
            let mut k = span("kernel", StackLevel::Kernel, 100, 200);
            k.trace_id = TraceId(tid);
            models.push(m);
            kernels.push(k);
        }
        let spans: Vec<Span> = models.into_iter().chain(kernels).collect();
        let mut engine = CorrelationEngine::new();
        let all = engine.correlate(Trace::from_spans(spans));
        assert_eq!(all.len(), 6);
        assert!(all.ambiguities.is_clean());
        let runs: Vec<u64> = all.iter_spans().map(|s| s.trace_id.0).collect();
        assert_eq!(runs, vec![3, 3, 1, 1, 2, 2]);
        for pair in all.spans().chunks(2) {
            assert_eq!(
                pair[1].parent,
                Some(pair[0].id),
                "kernel binds in its own run"
            );
        }
        assert_eq!(engine.trees_built_at(StackLevel::Kernel), 0);
        assert_eq!(engine.trees_built_at(StackLevel::Model), 3, "one per run");
    }

    #[test]
    fn correlation_cache_matches_batch_and_does_o_new_work() {
        let run_spans = |tid: u64| {
            let mut m = span("predict", StackLevel::Model, 0, 1000);
            m.trace_id = TraceId(tid);
            let mid = m.id;
            let mut layer = span("conv", StackLevel::Layer, 10, 400);
            layer.trace_id = TraceId(tid);
            layer.parent = Some(mid);
            let mut l = launch("cudaLaunchKernel", 90 + tid, 50, 60, None);
            l.trace_id = TraceId(tid);
            let mut x = exec("volta", 90 + tid, 450, 900);
            x.trace_id = TraceId(tid);
            vec![m, layer, l, x]
        };
        let mut store = SpanStore::new();
        for s in run_spans(1).iter().chain(run_spans(2).iter()) {
            store.push(s);
        }
        let mut engine = CorrelationEngine::new();
        let mut cache = StoreCorrelationCache::new();
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 2, "one pass per run");
        assert_eq!(cache.runs_cached(), 2);

        // Identity vs the owned-trace pass.
        let batch = CorrelationEngine::new().correlate(store.to_trace());
        assert_eq!(owned_rows(&cache, &store), batch.spans());

        // Nothing new: a refresh re-correlates nothing.
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 2, "clean refresh must be free");

        // Appending to run 2 re-correlates run 2 only.
        let mut extra = span("kernel2", StackLevel::Kernel, 100, 200);
        extra.trace_id = TraceId(2);
        store.push(&extra);
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 3, "one grown run, one pass");

        // A new run appends one more pass, not a full recompute.
        for s in run_spans(3) {
            store.push(&s);
        }
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 4);

        // The refreshed cache still matches the batch pass.
        let batch = CorrelationEngine::new().correlate(store.to_trace());
        assert_eq!(owned_rows(&cache, &store), batch.spans());

        // Invalidation after a store clear: everything recorrelates.
        store.clear();
        cache.invalidate();
        assert_eq!(cache.runs_cached(), 0);
        store.push(&span("predict", StackLevel::Model, 0, 10));
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 5);
        assert_eq!(owned_rows(&cache, &store).len(), 1);
    }

    #[test]
    fn store_pass_is_allocation_shaped_like_the_span_pass() {
        // The lazy-tree contract holds over the store too: the kernel-level
        // tree is never built when every kernel resolves against layers.
        let model = span("predict", StackLevel::Model, 0, 100_000);
        let mid = model.id;
        let mut spans = vec![model];
        for i in 0..20u64 {
            let mut layer = span("conv", StackLevel::Layer, i * 1000, i * 1000 + 900);
            layer.parent = Some(mid);
            spans.push(layer);
        }
        for i in 0..100u64 {
            let at = (i % 20) * 1000;
            spans.push(launch("cudaLaunchKernel", i, at + 10, at + 20, None));
            spans.push(exec("volta_kernel", i, at + 30, at + 800));
        }
        let store = crate::store::SpanStore::from_spans(&spans);
        let mut engine = CorrelationEngine::new();
        let cache = engine.correlate_store(&store);
        let c = cache.correlated(&store);
        assert!(c.ambiguities().is_clean(), "{:?}", c.ambiguities());
        assert_eq!(c.len(), 1 + 20 + 100, "pairs merged");
        assert_eq!(engine.trees_built_at(StackLevel::Kernel), 0);
        assert_eq!(engine.trees_built_at(StackLevel::Layer), 1);
        assert_eq!(engine.trees_built_at(StackLevel::Model), 0);
    }
}
