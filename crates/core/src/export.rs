//! Profile export: streams a [`LeveledProfile`] or one correlated trace out
//! of the process in any supported trace format, and provides the
//! always-on export sink that [`crate::profile::Xsp`] threads through
//! sweeps and the serving simulator streams its steps into.
//!
//! Everything here writes through one format dispatch over the incremental
//! writers of [`xsp_trace::export::stream`]: spans leave through an
//! `io::Write` one at a time (one evaluation run at a time for folded
//! stacks, which need the run's parent tree), so exporting never
//! materializes the serialized trace. Because profiles are deterministic in `(config, graph)` and runs
//! are merged in submission order, exported bytes are identical for every
//! [`crate::scheduler::Parallelism`] setting — the CI export-determinism
//! lane diffs serial against 4-worker output for all three formats.

use crate::pipeline::RunProfile;
use crate::profile::LeveledProfile;
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use xsp_trace::export::stream::{ChromeTraceWriter, FoldedStacksWriter, SpanJsonLinesWriter};
use xsp_trace::export::SpanBinaryWriter;
use xsp_trace::store::TagRef;
use xsp_trace::{CorrelatedStore, CorrelatedTrace, SpanFields, SpanId, StackLevel, TraceId};

/// The trace formats `xsp export` (and [`export_profile`]) can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    /// Span-JSON-lines: one raw span object per line (the streaming
    /// interchange format; read back with
    /// [`xsp_trace::export::read_span_json_lines`]).
    Spans,
    /// `.xspb` span binary: length-prefixed records with interned names
    /// (the compact interchange format; read back with
    /// [`xsp_trace::export::read_span_binary`]).
    Binary,
    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    Chrome,
    /// Brendan-Gregg folded stacks (`flamegraph.pl`, speedscope).
    Folded,
}

impl ExportFormat {
    /// Every format, in CLI listing order.
    pub const ALL: [ExportFormat; 4] = [
        ExportFormat::Spans,
        ExportFormat::Binary,
        ExportFormat::Chrome,
        ExportFormat::Folded,
    ];

    /// The accepted `--format` spellings, grouped per format (used by
    /// [`ParseFormatError`] to enumerate valid values).
    pub const SPELLINGS: [(&'static str, ExportFormat); 4] = [
        ("spans|jsonl|span-json-lines", ExportFormat::Spans),
        ("xspb|binary|span-binary", ExportFormat::Binary),
        ("chrome|chrome-trace", ExportFormat::Chrome),
        ("folded|flamegraph", ExportFormat::Folded),
    ];

    /// Parses the `--format` spelling. Rejection carries the offending value
    /// and enumerates every accepted spelling (see [`ParseFormatError`]).
    pub fn parse(raw: &str) -> Result<Self, ParseFormatError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "spans" | "jsonl" | "span-json-lines" => Ok(ExportFormat::Spans),
            "xspb" | "binary" | "span-binary" => Ok(ExportFormat::Binary),
            "chrome" | "chrome-trace" => Ok(ExportFormat::Chrome),
            "folded" | "flamegraph" => Ok(ExportFormat::Folded),
            _ => Err(ParseFormatError {
                value: raw.to_owned(),
            }),
        }
    }

    /// The canonical CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            ExportFormat::Spans => "spans",
            ExportFormat::Binary => "xspb",
            ExportFormat::Chrome => "chrome",
            ExportFormat::Folded => "folded",
        }
    }
}

impl fmt::Display for ExportFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Rejection produced by [`ExportFormat::parse`]: carries the rejected
/// spelling and renders every valid one, so CLI and daemon callers surface
/// the same self-explanatory message instead of a bare "bad --format".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError {
    /// The spelling that failed to parse, verbatim.
    pub value: String,
}

impl fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown export format '{}'; valid values:", self.value)?;
        for (i, (spellings, format)) in ExportFormat::SPELLINGS.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}{spellings} ({format})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseFormatError {}

/// Streams every span of `profile` (canonical run order: M, M/L, M/L/G,
/// metric runs) to `out` in the requested format. Returns the number of
/// spans (events, for folded stacks: runs) written.
pub fn export_profile<W: Write>(
    profile: &LeveledProfile,
    format: ExportFormat,
    out: W,
) -> io::Result<usize> {
    let mut writer = SinkWriter::new(format, out)?;
    for run in profile.runs() {
        writer.write_run(&run.trace)?;
    }
    writer.finish()?;
    Ok(writer.written())
}

/// Streams one correlated trace — the `xsp export --from trace.jsonl`
/// path, where the spans came from a saved capture, and the daemon's live
/// export — to `out` in the requested format. Returns the number of spans
/// written (for folded stacks: the number of root-level traversals, i.e.
/// 1 per call).
///
/// Because a saved capture already carries reconstructed parents and merged
/// async pairs, re-correlation is a no-op on its spans, and the bytes this
/// emits for a capture of `profile` equal the live [`export_profile`]
/// bytes for the same profile — the offline round-trip test pins that
/// equivalence against the frozen chrome golden. For folded stacks one
/// traversal covers every run: the trace's root set lists each run's
/// roots in publication order, which is the per-run order of the live
/// export.
pub fn export_correlated<W: Write>(
    trace: &CorrelatedTrace,
    format: ExportFormat,
    out: W,
) -> io::Result<usize> {
    let mut writer = SinkWriter::new(format, out)?;
    writer.write_run(trace)?;
    writer.finish()?;
    Ok(writer.written())
}

/// Streams a correlated store — a daemon session's live export — to `out`
/// in the requested format, with the bytes [`export_correlated`] writes
/// for the same spans correlated into an owned trace. Each span is encoded
/// from its store row; no owned span is built. Returns what
/// [`export_correlated`] returns.
pub fn export_correlated_store<W: Write>(
    store: &CorrelatedStore<'_>,
    format: ExportFormat,
    out: W,
) -> io::Result<usize> {
    let mut writer = SinkWriter::new(format, out)?;
    writer.write_store(store)?;
    writer.finish()?;
    Ok(writer.written())
}

/// [`export_correlated`] of an offline-reconstructed [`RunProfile`]'s
/// trace (see [`crate::pipeline::profile_from_trace`]).
pub fn export_run_profile<W: Write>(
    profile: &RunProfile,
    format: ExportFormat,
    out: W,
) -> io::Result<usize> {
    export_correlated(&profile.trace, format, out)
}

/// The one format dispatch behind every export: span-JSON-lines (the
/// default interchange), `.xspb` span binary and Chrome trace events append
/// one span at a time; folded stacks need each span's children and
/// therefore finalize one correlated run at a time
/// ([`SinkWriter::write_run`]) — per-span writes on a folded writer are a
/// structured error, not silent misbehavior.
enum SinkWriter<W: Write> {
    Jsonl(SpanJsonLinesWriter<W>),
    Binary(SpanBinaryWriter<W>),
    Chrome(ChromeTraceWriter<W>),
    Folded {
        writer: FoldedStacksWriter<W>,
        runs: usize,
    },
}

impl<W: Write> SinkWriter<W> {
    /// Opens a writer in `format` over `out`. Fallible because the `.xspb`
    /// header and the Chrome `traceEvents` envelope are written eagerly, so
    /// a dead writer surfaces here instead of poisoning the first span.
    fn new(format: ExportFormat, out: W) -> io::Result<Self> {
        Ok(match format {
            ExportFormat::Spans => SinkWriter::Jsonl(SpanJsonLinesWriter::new(out)),
            ExportFormat::Binary => SinkWriter::Binary(SpanBinaryWriter::new(out)?),
            ExportFormat::Chrome => SinkWriter::Chrome(ChromeTraceWriter::new(out)?),
            ExportFormat::Folded => SinkWriter::Folded {
                writer: FoldedStacksWriter::new(out),
                runs: 0,
            },
        })
    }

    /// Appends one span; any [`SpanFields`] view is written alike.
    fn write_span(&mut self, span: impl SpanFields) -> io::Result<()> {
        match self {
            SinkWriter::Jsonl(w) => w.write_span(span),
            SinkWriter::Binary(w) => w.write_span(span),
            SinkWriter::Chrome(w) => w.write_span(span),
            SinkWriter::Folded { .. } => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "folded sinks finalize per correlated run and cannot accept raw span \
                 writes; use a spans, xspb, or json sink for span streams",
            )),
        }
    }

    /// Appends one correlated run. Folded output emits the run's stacks in
    /// one go; every other format appends the run's spans.
    fn write_run(&mut self, trace: &CorrelatedTrace) -> io::Result<()> {
        if let SinkWriter::Folded { writer, runs } = self {
            writer.write_run(trace)?;
            *runs += 1;
            return Ok(());
        }
        trace
            .iter_spans()
            .try_for_each(|span| self.write_span(span))
    }

    /// Appends a correlated store, as [`SinkWriter::write_run`] appends the
    /// same spans correlated into an owned trace.
    fn write_store(&mut self, store: &CorrelatedStore<'_>) -> io::Result<()> {
        if let SinkWriter::Folded { writer, runs } = self {
            writer.write_store(store)?;
            *runs += 1;
            return Ok(());
        }
        store.rows().try_for_each(|row| self.write_span(row))
    }

    /// Appends `run` with every span moved to run `trace_id` and shifted in
    /// time so that the run's earliest span starts at `start_ns`. Each span
    /// is encoded in place with the new values, not copied. Folded lines
    /// carry neither a trace id nor a timestamp, so a folded writer writes
    /// the run unchanged.
    fn write_shifted(
        &mut self,
        run: &CorrelatedTrace,
        trace_id: TraceId,
        start_ns: u64,
    ) -> io::Result<()> {
        if let SinkWriter::Folded { .. } = self {
            return self.write_run(run);
        }
        let base_ns = run.iter_spans().map(|s| s.start_ns).min().unwrap_or(0);
        run.iter_spans().try_for_each(|span| {
            self.write_span(Shifted {
                span,
                trace_id,
                by: start_ns.wrapping_sub(base_ns),
            })
        })
    }

    fn written(&self) -> usize {
        match self {
            SinkWriter::Jsonl(w) => w.written(),
            SinkWriter::Binary(w) => w.written(),
            SinkWriter::Chrome(w) => w.written(),
            SinkWriter::Folded { runs, .. } => *runs,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SinkWriter::Jsonl(w) => w.flush(),
            SinkWriter::Binary(w) => w.flush(),
            SinkWriter::Chrome(w) => w.flush(),
            SinkWriter::Folded { writer, .. } => writer.flush(),
        }
    }

    /// Writes any format trailer (the Chrome `]}` envelope close) and
    /// flushes. After this the stream is complete; call it once.
    fn finish(&mut self) -> io::Result<()> {
        match self {
            SinkWriter::Chrome(w) => w.close(),
            other => other.flush(),
        }
    }
}

/// A span read as if it belonged to run `trace_id` and ran `by`
/// nanoseconds later (wrapping, so a shift to an earlier time works too):
/// a serving step writes its memoized run this way without copying a span.
struct Shifted<S> {
    span: S,
    trace_id: TraceId,
    by: u64,
}

impl<S: SpanFields> SpanFields for Shifted<S> {
    fn id(&self) -> SpanId {
        self.span.id()
    }

    fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    fn name(&self) -> &str {
        self.span.name()
    }

    fn level(&self) -> StackLevel {
        self.span.level()
    }

    fn start_ns(&self) -> u64 {
        self.span.start_ns().wrapping_add(self.by)
    }

    fn end_ns(&self) -> u64 {
        self.span.end_ns().wrapping_add(self.by)
    }

    fn parent(&self) -> Option<SpanId> {
        self.span.parent()
    }

    fn tag_count(&self) -> usize {
        self.span.tag_count()
    }

    fn tags(&self) -> impl Iterator<Item = (&str, TagRef<'_>)> + Clone {
        self.span.tags()
    }

    fn log_count(&self) -> usize {
        self.span.log_count()
    }

    fn logs(&self) -> impl Iterator<Item = (u64, &str)> {
        self.span.logs()
    }
}

struct SinkState {
    writer: SinkWriter<Box<dyn Write + Send>>,
    /// First write failure; once set, further writes are dropped so a full
    /// disk cannot panic a sweep mid-flight.
    error: Option<io::Error>,
    /// Whether [`ExportSink::finish`] has run: the trailer is written once,
    /// and later writes are refused (they would corrupt a closed stream).
    finished: bool,
}

/// A shared export sink threaded through [`crate::profile::XspConfig`]:
/// every evaluation run the profiler completes is appended (in submission
/// order, so bytes are worker-count-independent) as soon as its point
/// finishes — a batch sweep exports incrementally instead of holding every
/// profile until the end.
///
/// Clones share the underlying writer; a config clone therefore keeps
/// appending to the same stream. I/O failures are latched instead of
/// panicking: the first error stops further writes and is surfaced by
/// [`ExportSink::take_error`] / [`ExportSink::flush`].
#[derive(Clone)]
pub struct ExportSink {
    state: Arc<Mutex<SinkState>>,
}

impl ExportSink {
    /// Creates a sink in `format` over any writer (file, socket, `Vec<u8>`
    /// in tests). Fallible for the reason [`SinkWriter::new`] is; call
    /// [`ExportSink::finish`] when the capture ends so a Chrome envelope
    /// closes (an unfinished chrome sink is truncated JSON).
    fn with_format(format: ExportFormat, out: impl Write + Send + 'static) -> io::Result<Self> {
        Ok(Self {
            state: Arc::new(Mutex::new(SinkState {
                writer: SinkWriter::new(format, Box::new(out) as Box<dyn Write + Send>)?,
                error: None,
                finished: false,
            })),
        })
    }

    /// Creates a span-JSON-lines sink over any writer (file, socket,
    /// `Vec<u8>` in tests).
    pub fn new(out: impl Write + Send + 'static) -> Self {
        Self::with_format(ExportFormat::Spans, out).expect("a JSONL sink writes nothing on open")
    }

    /// Creates a sink appending to a buffered file at `path`. The format
    /// follows the extension, matched case-insensitively (`.XSPB` routes
    /// like `.xspb`): `.xspb` selects span binary, `.json` Chrome trace
    /// events, `.folded` folded stacks, everything else span-JSON-lines.
    /// Folded output finalizes one correlated run at a time, so only
    /// run-granular feeds (profiler sweeps, serving steps) can write to a
    /// folded sink; raw span streams latch a structured error.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let ext = path
            .extension()
            .and_then(|e| e.to_str())
            .map(|e| e.to_ascii_lowercase());
        let format = match ext.as_deref() {
            Some("xspb") => ExportFormat::Binary,
            Some("json") => ExportFormat::Chrome,
            Some("folded") => ExportFormat::Folded,
            _ => ExportFormat::Spans,
        };
        Self::with_format(format, io::BufWriter::new(file))
    }

    /// Appends the given finalized runs (used by the profiler after each
    /// engine merge, and to replay cache-served profiles; runs arrive in
    /// submission order). Run granularity is what lets chrome and folded
    /// sinks stream sweeps: folded stacks are emitted per correlated run,
    /// every other format appends the run's spans.
    pub(crate) fn write_runs<'a>(&self, runs: impl IntoIterator<Item = &'a RunProfile>) {
        self.write_with(|writer| {
            runs.into_iter()
                .try_for_each(|run| writer.write_run(&run.trace))
        });
    }

    /// Appends `run` as one serving step: every span is written under
    /// `trace_id`, shifted so the run starts at `start_ns` (see
    /// [`SinkWriter::write_shifted`]). The run itself is left untouched, so
    /// a memoized run streams once per step without being re-correlated.
    pub(crate) fn write_step(&self, run: &CorrelatedTrace, trace_id: TraceId, start_ns: u64) {
        self.write_with(|writer| writer.write_shifted(run, trace_id, start_ns));
    }

    /// Runs `write` on the writer unless the sink is poisoned or finished,
    /// latching its first error.
    fn write_with(
        &self,
        write: impl FnOnce(&mut SinkWriter<Box<dyn Write + Send>>) -> io::Result<()>,
    ) {
        let mut state = self.state.lock().expect("sink lock");
        if state.error.is_some() || state.finished {
            return;
        }
        if let Err(e) = write(&mut state.writer) {
            state.error = Some(e);
        }
    }

    /// Appends a batch of spans in batch order: owned spans, or any other
    /// [`SpanFields`] view, such as the rows of a daemon session's store.
    /// Like every sink write this latches the first I/O failure instead of
    /// returning it: once poisoned the sink drops all further writes, and
    /// the error stays observable through [`ExportSink::flush`] /
    /// [`ExportSink::error_message`] / [`ExportSink::take_error`]. This is
    /// the spill path of the `xspd` daemon, which appends each session's
    /// resident store rows on quota pressure, teardown, and graceful
    /// shutdown. Raw span streams are refused by folded sinks (which can
    /// only finalize whole correlated runs): the refusal latches as a
    /// structured `InvalidInput` error rather than silently writing the
    /// wrong format.
    pub fn write_spans<S: SpanFields>(&self, spans: impl IntoIterator<Item = S>) {
        self.write_with(|writer| {
            spans
                .into_iter()
                .try_for_each(|span| writer.write_span(span))
        });
    }

    /// Number of spans written so far.
    pub fn spans_written(&self) -> usize {
        self.state.lock().expect("sink lock").writer.written()
    }

    /// Renders the latched write error without claiming it (unlike
    /// [`ExportSink::take_error`]) — every observer keeps seeing the
    /// poisoned state. The daemon reports this in session close frames.
    pub fn error_message(&self) -> Option<String> {
        self.state
            .lock()
            .expect("sink lock")
            .error
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Flushes the underlying writer, surfacing any latched write error.
    ///
    /// The latch is *not* cleared: once a write has failed the sink stays
    /// stopped (the stream may end in a torn partial line), and every
    /// subsequent `flush` keeps reporting the failure. Use
    /// [`ExportSink::take_error`] to claim the original error object.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state.lock().expect("sink lock");
        if let Some(e) = &state.error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        match state.writer.flush() {
            Ok(()) => Ok(()),
            Err(e) => {
                let report = io::Error::new(e.kind(), e.to_string());
                state.error = Some(e);
                Err(report)
            }
        }
    }

    /// Completes the stream: writes any format trailer (the Chrome `]}`
    /// envelope close) and flushes. Idempotent — the trailer is written
    /// once, and later writes are dropped, so every teardown path (client
    /// close, disconnect, daemon shutdown drain) may finish the same sink.
    /// Surfaces the latched write error like [`ExportSink::flush`].
    pub fn finish(&self) -> io::Result<()> {
        let mut state = self.state.lock().expect("sink lock");
        if let Some(e) = &state.error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        if state.finished {
            return Ok(());
        }
        state.finished = true;
        match state.writer.finish() {
            Ok(()) => Ok(()),
            Err(e) => {
                let report = io::Error::new(e.kind(), e.to_string());
                state.error = Some(e);
                Err(report)
            }
        }
    }

    /// Takes the first write error, if any occurred.
    pub fn take_error(&self) -> Option<io::Error> {
        self.state.lock().expect("sink lock").error.take()
    }
}

impl fmt::Debug for ExportSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExportSink")
            .field("spans_written", &self.spans_written())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileMode, ProfileRequest, ProfilingLevel, Xsp, XspConfig};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;
    use xsp_trace::{CorrelationEngine, Span, SpanStore, StackLevel, StoreCorrelationCache, Trace};

    fn profile() -> LeveledProfile {
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1);
        Xsp::new(cfg).run(
            ProfileRequest::new(&zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1))
                .mode(ProfileMode::ModelAndMetrics),
        )
    }

    /// A `Write` handle over a shared buffer, so tests can inspect sink
    /// bytes while the sink owns the writer.
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn format_parsing() {
        assert_eq!(ExportFormat::parse("spans"), Ok(ExportFormat::Spans));
        assert_eq!(ExportFormat::parse("CHROME"), Ok(ExportFormat::Chrome));
        assert_eq!(ExportFormat::parse("flamegraph"), Ok(ExportFormat::Folded));
        for f in ExportFormat::ALL {
            assert_eq!(ExportFormat::parse(f.label()), Ok(f));
        }
        for (spellings, f) in ExportFormat::SPELLINGS {
            for s in spellings.split('|') {
                assert_eq!(ExportFormat::parse(s), Ok(f));
            }
        }
    }

    #[test]
    fn format_parse_rejection_lists_valid_values() {
        let err = ExportFormat::parse("perfetto").unwrap_err();
        assert_eq!(err.value, "perfetto");
        let msg = err.to_string();
        assert!(msg.contains("'perfetto'"), "names the bad value: {msg}");
        for (spellings, _) in ExportFormat::SPELLINGS {
            assert!(msg.contains(spellings), "lists {spellings}: {msg}");
        }
        // The raw value is preserved verbatim (no trimming/lowercasing) so
        // the message shows exactly what the user typed.
        assert_eq!(
            ExportFormat::parse(" Perfetto ").unwrap_err().value,
            " Perfetto "
        );
    }

    #[test]
    fn spans_export_matches_wrapper_json() {
        let p = profile();
        let mut out = Vec::new();
        let written = export_profile(&p, ExportFormat::Spans, &mut out).unwrap();
        assert_eq!(written, p.iter_spans().count());
        let trace = xsp_trace::export::read_span_json_lines(&out[..]).unwrap();
        assert_eq!(
            xsp_trace::export::to_span_json(&trace),
            p.to_span_json(),
            "JSONL round trip must reproduce the array exporter"
        );
    }

    #[test]
    fn chrome_export_parses_and_covers_every_span() {
        let p = profile();
        let mut out = Vec::new();
        let written = export_profile(&p, ExportFormat::Chrome, &mut out).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), written);
        assert_eq!(written, p.iter_spans().count());
    }

    #[test]
    fn folded_export_emits_all_runs() {
        let p = profile();
        let mut out = Vec::new();
        let runs = export_profile(&p, ExportFormat::Folded, &mut out).unwrap();
        assert_eq!(runs, p.runs().count());
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().count() > 2);
        for line in text.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
            assert!(weight.parse::<u64>().unwrap() >= 1, "{line}");
            assert!(!stack.is_empty());
        }
    }

    #[test]
    fn sink_collects_runs_as_they_complete() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sink = ExportSink::new(SharedBuf(bytes.clone()));
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .export_sink(sink.clone());
        let xsp = Xsp::new(cfg);
        let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1);
        let p = xsp.run(ProfileRequest::new(&graph).level(ProfilingLevel::Model));
        assert_eq!(sink.spans_written(), p.iter_spans().count());
        let after_first = sink.spans_written();
        let p2 = xsp.run(ProfileRequest::new(&graph).level(ProfilingLevel::Model));
        assert_eq!(
            sink.spans_written(),
            after_first + p2.iter_spans().count(),
            "sink appends across profiler calls"
        );
        sink.flush().unwrap();
        let trace = xsp_trace::export::read_span_json_lines(&bytes.lock().unwrap()[..]).unwrap();
        assert_eq!(trace.len(), sink.spans_written());
    }

    #[test]
    fn chrome_sink_streams_runs_and_finish_closes_the_envelope() {
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sink = ExportSink::with_format(ExportFormat::Chrome, Buf(bytes.clone())).unwrap();
        sink.write_runs(&runs);
        sink.finish().unwrap();
        sink.finish().unwrap(); // idempotent: the trailer is written once
        let mut expected = Vec::new();
        export_profile(&p, ExportFormat::Chrome, &mut expected).unwrap();
        assert_eq!(
            *bytes.lock().unwrap(),
            expected,
            "per-run streamed chrome bytes equal the one-shot export"
        );
    }

    #[test]
    fn folded_sink_finalizes_per_run_and_rejects_raw_spans() {
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sink = ExportSink::with_format(ExportFormat::Folded, Buf(bytes.clone())).unwrap();
        sink.write_runs(&runs);
        assert_eq!(sink.spans_written(), runs.len(), "folded counts runs");
        sink.finish().unwrap();
        let mut expected = Vec::new();
        export_profile(&p, ExportFormat::Folded, &mut expected).unwrap();
        assert_eq!(*bytes.lock().unwrap(), expected);

        // Raw span streams cannot be folded: the refusal is a structured
        // latched error, not silently-wrong output.
        let sink = ExportSink::with_format(ExportFormat::Folded, Vec::new()).unwrap();
        let span =
            xsp_trace::SpanBuilder::new("s", xsp_trace::StackLevel::Model, xsp_trace::TraceId(1))
                .start(0)
                .finish(1);
        sink.write_spans([&span]);
        let err = sink.take_error().expect("refusal must latch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("folded"), "{err}");
    }

    #[test]
    fn a_shifted_run_writes_what_recorrelating_a_shifted_copy_writes() {
        // A serving step writes its memoized run shifted instead of
        // correlating a shifted copy; both must give the same bytes. The run
        // here has parents grafted by `set_parent`, as a serialized re-run
        // leaves them (no zoo model takes that re-run on the simulated
        // V100, so the graft is made by hand): every kernel moves to the
        // first layer.
        let mut run = profile().metric_runs[0].trace.clone();
        let levels: Vec<StackLevel> = run.iter_spans().map(|s| s.level).collect();
        let layer = levels.iter().position(|&l| l == StackLevel::Layer);
        let layer = run.spans()[layer.expect("an M/L/G run has layers")].id;
        for i in (0..levels.len()).filter(|&i| levels[i] == StackLevel::Kernel) {
            run.set_parent(i, layer);
        }
        let (trace_id, start_ns) = (TraceId(9), 5_000_000);
        let base_ns = run.iter_spans().map(|s| s.start_ns).min().unwrap();
        let shifted: Vec<Span> = run
            .iter_spans()
            .map(|s| Span {
                trace_id,
                start_ns: s.start_ns - base_ns + start_ns,
                end_ns: s.end_ns - base_ns + start_ns,
                ..s.clone()
            })
            .collect();
        let again = CorrelationEngine::new().correlate(Trace::from_spans(shifted));
        for format in ExportFormat::ALL {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut w = SinkWriter::new(format, &mut got).unwrap();
            w.write_shifted(&run, trace_id, start_ns).unwrap();
            w.finish().unwrap();
            let mut w = SinkWriter::new(format, &mut want).unwrap();
            w.write_run(&again).unwrap();
            w.finish().unwrap();
            assert!(got == want, "{format}: the shifted run differs");
        }
    }

    #[test]
    fn a_correlated_store_exports_the_owned_correlation_bytes() {
        let spans: Vec<Span> = profile().iter_spans().cloned().collect();
        let owned = CorrelationEngine::new().correlate(Trace::from_spans(spans.clone()));
        let store = SpanStore::from_spans(&spans);
        let mut cache = StoreCorrelationCache::new();
        cache.refresh(&mut CorrelationEngine::new(), &store);
        for format in ExportFormat::ALL {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let n = export_correlated_store(&cache.correlated(&store), format, &mut got).unwrap();
            assert_eq!(n, export_correlated(&owned, format, &mut want).unwrap());
            assert!(got == want, "{format}: the store export differs");
        }
    }

    #[test]
    fn create_routes_every_extension_to_its_writer() {
        let dir = std::env::temp_dir().join(format!("xsp_sink_route_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        for (name, format) in [
            ("t.jsonl", ExportFormat::Spans),
            ("t.xspb", ExportFormat::Binary),
            ("t.json", ExportFormat::Chrome),
            ("t.folded", ExportFormat::Folded),
        ] {
            let path = dir.join(name);
            let sink = ExportSink::create(&path).unwrap();
            sink.write_runs(&runs);
            sink.finish().unwrap();
            let got = std::fs::read(&path).unwrap();
            let mut expected = Vec::new();
            export_profile(&p, format, &mut expected).unwrap();
            assert_eq!(got, expected, "{name} must route to the {format} writer");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_routes_extensions_case_insensitively() {
        // Upper- and mixed-case spellings of every extension must route to
        // the same writer their lowercase form does.
        let dir = std::env::temp_dir().join(format!("xsp_sink_route_ci_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        for (name, format) in [
            ("u.JSONL", ExportFormat::Spans),
            ("u.Jsonl", ExportFormat::Spans),
            ("u.XSPB", ExportFormat::Binary),
            ("u.XspB", ExportFormat::Binary),
            ("u.JSON", ExportFormat::Chrome),
            ("u.Json", ExportFormat::Chrome),
            ("u.FOLDED", ExportFormat::Folded),
            ("u.FoLdEd", ExportFormat::Folded),
        ] {
            let path = dir.join(name);
            let sink = ExportSink::create(&path).unwrap();
            sink.write_runs(&runs);
            sink.finish().unwrap();
            let got = std::fs::read(&path).unwrap();
            let mut expected = Vec::new();
            export_profile(&p, format, &mut expected).unwrap();
            assert_eq!(got, expected, "{name} must route to the {format} writer");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_latches_write_errors_instead_of_panicking() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = ExportSink::new(FailingWriter);
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .export_sink(sink.clone());
        // the profile itself must survive the broken sink
        let p = Xsp::new(cfg).run(
            ProfileRequest::new(&zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1))
                .level(ProfilingLevel::Model),
        );
        assert!(p.model_latency_ms() > 0.0);
        assert!(sink.flush().is_err(), "error must surface on flush");
        assert!(
            sink.flush().is_err(),
            "the latch must persist across flushes — the sink stays stopped"
        );
        assert!(sink.take_error().is_some());
    }

    #[test]
    fn poisoned_sink_stops_writing_and_every_observer_sees_the_latch() {
        // Fails the first write, then would happily accept bytes — proving
        // that post-latch sweeps are dropped by the latch, not by luck.
        struct FailOnce {
            failed: bool,
            writes_after_failure: Arc<Mutex<usize>>,
        }
        impl Write for FailOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.failed {
                    self.failed = true;
                    return Err(io::Error::other("first write exploded"));
                }
                *self.writes_after_failure.lock().unwrap() += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let writes_after_failure = Arc::new(Mutex::new(0usize));
        let sink = ExportSink::new(FailOnce {
            failed: false,
            writes_after_failure: writes_after_failure.clone(),
        });
        let spans: Vec<xsp_trace::Span> = (0..5)
            .map(|i| {
                xsp_trace::SpanBuilder::new(
                    "s",
                    xsp_trace::StackLevel::Model,
                    xsp_trace::TraceId(1),
                )
                .start(i)
                .finish(i + 1)
            })
            .collect();
        sink.write_spans(&spans); // first sweep: poisons on span 0
        assert_eq!(sink.spans_written(), 0);
        sink.write_spans(&spans); // second sweep: dropped by the latch
        sink.write_spans(&spans); // third sweep: still dropped
        assert_eq!(
            *writes_after_failure.lock().unwrap(),
            0,
            "no write reaches the underlying writer once the sink is poisoned"
        );
        // error_message is non-consuming: every observer (the daemon reads
        // it once per flush ack and once for the close frame) keeps seeing
        // the same latched failure.
        let first = sink.error_message().expect("latched");
        let second = sink.error_message().expect("still latched");
        assert_eq!(first, second);
        assert!(first.contains("first write exploded"));
        assert!(sink.flush().is_err(), "flush reports the latched error too");
        // take_error claims the error object itself.
        assert!(sink.take_error().is_some());
        assert!(sink.take_error().is_none(), "claimed exactly once");
    }
}
