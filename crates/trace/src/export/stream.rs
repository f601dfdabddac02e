//! Streaming trace export: incremental writers over [`io::Write`].
//!
//! The string-returning exporters in [`crate::export`] materialize the whole
//! serialized trace before anything leaves the process — fine for a unit
//! test, hopeless for sweep-scale traces (a single BERT-Base run already
//! serializes to ~200 KB; a model-fleet sweep is thousands of runs). Every
//! writer here instead emits spans *as they arrive*: peak memory is one
//! scratch buffer the size of the largest span's serialization (one
//! evaluation run's spans for folded stacks, which need the run's parent
//! tree), independent of total trace size.
//!
//! Three formats share one contract:
//!
//! * **span JSON** — [`SpanJsonWriter`] (the `[{span},...]` array the
//!   offline-analysis pipeline reads) and [`SpanJsonLinesWriter`] (one span
//!   object per line, the streaming interchange format; concatenable, and
//!   readable back without loading the file via [`SpanJsonLinesReader`]).
//! * **Chrome trace events** — [`ChromeTraceWriter`], loadable in
//!   `chrome://tracing` / Perfetto.
//! * **folded stacks** — [`FoldedStacksWriter`], Brendan-Gregg format for
//!   `flamegraph.pl` / speedscope.
//!
//! The string exporters in [`crate::export`] are thin wrappers over these
//! writers, so streamed bytes are *identical* to materialized bytes — the
//! golden tests pin that equivalence, and the engine's determinism contract
//! (serial output == parallel output) extends to every exported artifact.
//!
//! Every writer takes any [`SpanFields`] view — an owned [`Span`], a
//! [`SpanStore`] row or a correlated store row — so each format has one
//! encoder whatever container the spans live in.
//!
//! The JSON writers and the JSON-lines readers go through the direct span
//! codec in `export/json.rs`: each writer encodes a span into one reused
//! scratch buffer and hands it to the output in one `write_all`; the
//! streaming reader parses each line straight into a [`Span`], and
//! [`read_span_json_lines_into_store`] parses an in-memory body straight
//! into a [`SpanStore`].

use super::json;
use crate::correlate::{CorrelatedStore, CorrelatedTrace, SpanForest};
use crate::server::Trace;
use crate::span::{Span, SpanFields};
use crate::store::SpanStore;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Error produced by the streaming readers: an I/O failure or a line that
/// is not a valid span object.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line failed to parse as span JSON (invalid UTF-8 included);
    /// carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// The parse error.
        source: xsp_json::Error,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "I/O error while reading spans: {e}"),
            ReadError::Parse { line, source } => {
                write!(f, "line {line} is not a span object: {source}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Incremental writer for the span-JSON *array* format — byte-compatible
/// with [`crate::export::to_span_json`], which wraps it.
///
/// ```
/// use xsp_trace::export::stream::SpanJsonWriter;
/// use xsp_trace::{SpanBuilder, StackLevel, TraceId};
/// let span = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1)).start(0).finish(5);
/// let mut w = SpanJsonWriter::new(Vec::new()).unwrap();
/// w.write_span(&span).unwrap();
/// let bytes = w.finish().unwrap();
/// assert!(bytes.starts_with(b"[{") && bytes.ends_with(b"}]"));
/// ```
#[derive(Debug)]
pub struct SpanJsonWriter<W: Write> {
    out: W,
    written: usize,
    buf: Vec<u8>,
}

impl<W: Write> SpanJsonWriter<W> {
    /// Opens the array.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"[")?;
        Ok(Self {
            out,
            written: 0,
            buf: Vec::new(),
        })
    }

    /// Appends one span.
    pub fn write_span(&mut self, span: impl SpanFields) -> io::Result<()> {
        self.buf.clear();
        if self.written > 0 {
            self.buf.push(b',');
        }
        json::push_span(&mut self.buf, &span);
        self.out.write_all(&self.buf)?;
        self.written += 1;
        Ok(())
    }

    /// Appends every span of `trace`.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        trace.spans().iter().try_for_each(|s| self.write_span(s))
    }

    /// Number of spans written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Closes the array, flushes, and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(b"]")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Incremental writer for span-JSON-*lines*: one span object per line.
///
/// This is the streaming interchange format — outputs are concatenable
/// (append two exports, get one valid trace), resumable after a crash up to
/// the last complete line, and readable back incrementally by
/// [`SpanJsonLinesReader`] without ever holding the file in memory.
#[derive(Debug)]
pub struct SpanJsonLinesWriter<W: Write> {
    out: W,
    written: usize,
    buf: Vec<u8>,
}

impl<W: Write> SpanJsonLinesWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            written: 0,
            buf: Vec::new(),
        }
    }

    /// Appends one span as a single line.
    pub fn write_span(&mut self, span: impl SpanFields) -> io::Result<()> {
        self.buf.clear();
        json::push_span(&mut self.buf, &span);
        self.buf.push(b'\n');
        self.out.write_all(&self.buf)?;
        self.written += 1;
        Ok(())
    }

    /// Appends every span of `trace`, one line each.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        trace.spans().iter().try_for_each(|s| self.write_span(s))
    }

    /// Number of spans written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes without consuming the writer (for long-lived sinks that
    /// outlive many sweep points).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader for span-JSON-lines: yields one [`Span`] per line,
/// holding only the current line in memory. Blank lines (those `str::trim`
/// empties) are skipped, so concatenated or hand-edited exports stay
/// readable.
///
/// A line accepts what `serde_json::from_str::<Span>` accepts: keys in any
/// order, JSON whitespace, unknown keys, a missing `parent`, repeated keys
/// (the last wins). A line that is not UTF-8 is a [`ReadError::Parse`]
/// naming its line number, like any other malformed line; only a failure
/// of the underlying reader is a [`ReadError::Io`].
#[derive(Debug)]
pub struct SpanJsonLinesReader<R: BufRead> {
    input: R,
    line: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> SpanJsonLinesReader<R> {
    /// Creates a reader over `input`.
    pub fn new(input: R) -> Self {
        Self {
            input,
            line: 0,
            buf: Vec::new(),
        }
    }
}

impl<R: BufRead> Iterator for SpanJsonLinesReader<R> {
    type Item = Result<Span, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            self.line += 1;
            match self.input.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {
                    let parsed = match line_text(&self.buf) {
                        Ok(None) => continue,
                        Ok(Some(text)) => json::parse_span(text),
                        Err(e) => Err(e),
                    };
                    return Some(parsed.map_err(|source| ReadError::Parse {
                        line: self.line,
                        source,
                    }));
                }
                Err(e) => return Some(Err(ReadError::Io(e))),
            }
        }
    }
}

/// One line as the span-JSON-lines readers take it: trailing `\n` and
/// `\r` bytes dropped, and `None` for a line `str::trim` empties.
fn line_text(line: &[u8]) -> Result<Option<&str>, xsp_json::Error> {
    let mut end = line.len();
    while end > 0 && matches!(line[end - 1], b'\n' | b'\r') {
        end -= 1;
    }
    match std::str::from_utf8(&line[..end]) {
        Ok(text) if text.trim().is_empty() => Ok(None),
        Ok(text) => Ok(Some(text)),
        Err(e) => Err(json::utf8_error(e)),
    }
}

/// Reads a complete span-JSON-lines stream back into a [`Trace`] — the
/// round-trip inverse of [`SpanJsonLinesWriter`].
pub fn read_span_json_lines<R: BufRead>(input: R) -> Result<Trace, ReadError> {
    let spans: Vec<Span> = SpanJsonLinesReader::new(input).collect::<Result<_, _>>()?;
    Ok(Trace::from_spans(spans))
}

/// Reads an in-memory span-JSON-lines body straight into `store`, in line
/// order, and returns the span count. It accepts and refuses exactly what
/// [`SpanJsonLinesReader`] does, with the same errors, but builds no owned
/// [`Span`]: each line is parsed with its strings borrowed from `bytes`
/// into two lists reused from line to line, then interned into the store.
/// On an error the spans of the lines before it are already in the store;
/// a caller that wants all or nothing truncates back
/// ([`SpanStore::truncate`]).
pub fn read_span_json_lines_into_store(
    bytes: &[u8],
    store: &mut SpanStore,
) -> Result<usize, ReadError> {
    let mut parts = json::BorrowedParts::default();
    let mut pushed = 0;
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let head = match line_text(line) {
            Ok(None) => continue,
            Ok(Some(text)) => json::parse_span_parts(text, &mut parts),
            Err(e) => Err(e),
        };
        let head = head.map_err(|source| ReadError::Parse {
            line: i + 1,
            source,
        })?;
        store.push_raw(
            head.id,
            head.trace_id,
            &head.name,
            head.level,
            head.start_ns,
            head.end_ns,
            head.parent,
        );
        for (key, value) in &parts.tags {
            store.raw_tag(key, value.as_ref());
        }
        for (at_ns, message) in &parts.logs {
            store.raw_log(*at_ns, message);
        }
        pushed += 1;
    }
    Ok(pushed)
}

/// Incremental writer for Chrome trace-event JSON — byte-compatible with
/// [`crate::export::to_chrome_trace`], which wraps it. Each stack level maps
/// to its own "thread" row so the across-stack timeline reads top-down like
/// Figure 1 of the paper; each evaluation run becomes a "process" row.
#[derive(Debug)]
pub struct ChromeTraceWriter<W: Write> {
    out: W,
    written: usize,
    buf: Vec<u8>,
}

impl<W: Write> ChromeTraceWriter<W> {
    /// Opens the `traceEvents` envelope.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"{\"traceEvents\":[")?;
        Ok(Self {
            out,
            written: 0,
            buf: Vec::new(),
        })
    }

    /// Appends one span as an "X" (complete) event.
    pub fn write_span(&mut self, span: impl SpanFields) -> io::Result<()> {
        self.buf.clear();
        if self.written > 0 {
            self.buf.push(b',');
        }
        json::push_chrome_event(&mut self.buf, &span);
        self.out.write_all(&self.buf)?;
        self.written += 1;
        Ok(())
    }

    /// Appends every span of `trace`.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        trace.spans().iter().try_for_each(|s| self.write_span(s))
    }

    /// Number of events written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes without consuming the writer (the envelope stays open for
    /// more events).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Closes the envelope and flushes without consuming the writer — for
    /// long-lived sinks whose writer half lives inside an enum. Close
    /// exactly once; a later `write_span` would write past the trailer.
    pub fn close(&mut self) -> io::Result<()> {
        self.out.write_all(b"]}")?;
        self.out.flush()
    }

    /// Closes the envelope, flushes, and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.close()?;
        Ok(self.out)
    }
}

/// Incremental writer for Brendan-Gregg folded-stack output — one line per
/// span with self-time, `model_prediction;conv2d/Conv2D;volta_scudnn 1234`
/// (weight = self time in microseconds).
///
/// Folded stacks need each span's children, so the streaming unit is one
/// *correlated run* ([`write_run`](FoldedStacksWriter::write_run), or
/// [`write_store`](FoldedStacksWriter::write_store) for a correlated
/// store): peak memory is the largest single run, not the whole export.
/// [`crate::export::to_folded_stacks`] wraps this writer.
#[derive(Debug)]
pub struct FoldedStacksWriter<W: Write> {
    out: W,
}

impl<W: Write> FoldedStacksWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Streams the folded stacks of one correlated trace (typically a
    /// single evaluation run) to the output, walking the trace's built-once
    /// root/children indices — no per-export adjacency rebuild.
    pub fn write_run(&mut self, trace: &CorrelatedTrace) -> io::Result<()> {
        let spans = trace.spans();
        self.write_forest(trace.forest(), |i| &spans[i])
    }

    /// Streams the folded stacks of a correlated store, exactly as
    /// [`write_run`](Self::write_run) streams the same spans correlated
    /// into an owned trace. The children come from the rows' (trace id,
    /// span id, parent) triples, indexed by the rule the owned trace uses.
    pub fn write_store(&mut self, store: &CorrelatedStore<'_>) -> io::Result<()> {
        let rows: Vec<_> = store.rows().collect();
        let forest = SpanForest::new(rows.len(), |i| {
            (rows[i].trace_id(), rows[i].id(), rows[i].parent())
        });
        self.write_forest(&forest, |i| rows[i])
    }

    /// The walk behind both: pre-order from each root, on an explicit stack
    /// of open spans, so a deep parent chain costs heap, not call-stack
    /// frames. Each walk stays in its root's run and visits a span at most
    /// once.
    fn write_forest<S: SpanFields>(
        &mut self,
        forest: &SpanForest,
        span: impl Fn(usize) -> S,
    ) -> io::Result<()> {
        let duration = |i: usize| {
            let s = span(i);
            s.end_ns() - s.start_ns()
        };
        // The open path's frames, `;`-joined, and per open span: its index,
        // the position of its next child, and where its frame starts.
        let mut line = String::new();
        let mut open: Vec<(usize, usize, usize)> = Vec::new();
        let mut roots = forest.roots().iter();
        loop {
            let idx = match open.last_mut() {
                Some((parent, next, start)) => match forest.children(*parent).get(*next) {
                    Some(&kid) => {
                        *next += 1;
                        kid
                    }
                    None => {
                        line.truncate(*start);
                        open.pop();
                        continue;
                    }
                },
                None => match roots.next() {
                    Some(&root) => root,
                    None => return Ok(()),
                },
            };
            open.push((idx, 0, line.len()));
            if !line.is_empty() {
                line.push(';');
            }
            line.extend(span(idx).name().chars().map(|c| match c {
                ';' | ' ' => '_',
                c => c,
            }));
            let kids = forest.children(idx);
            let child_time: u64 = kids.iter().map(|&k| duration(k)).sum();
            let self_us = duration(idx).saturating_sub(child_time) / 1_000;
            if self_us > 0 || kids.is_empty() {
                writeln!(self.out, "{line} {}", self_us.max(1))?;
            }
        }
    }

    /// Flushes without consuming the writer (for long-lived sinks that
    /// outlive many sweep points).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::reconstruct_parents;
    use crate::span::{SpanBuilder, StackLevel, TraceId};

    fn spans() -> Vec<Span> {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .tag("batch_size", 4u64)
            .finish(1_000_000);
        let pid = model.id;
        let layer = SpanBuilder::new("conv2d/Conv2D", StackLevel::Layer, TraceId(1))
            .start(1_000)
            .parent(pid)
            .tag("occ", 0.25f64)
            .finish(500_000);
        vec![model, layer]
    }

    #[test]
    fn array_writer_matches_materialized_exporter() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonWriter::new(Vec::new()).unwrap();
        w.write_trace(&trace).unwrap();
        assert_eq!(w.written(), 2);
        let streamed = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(
            streamed,
            serde_json::to_string(trace.spans()).unwrap(),
            "array framing must be byte-compatible with serde_json"
        );
    }

    #[test]
    fn empty_array_is_valid() {
        let w = SpanJsonWriter::new(Vec::new()).unwrap();
        assert_eq!(w.finish().unwrap(), b"[]");
    }

    #[test]
    fn json_lines_round_trip() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&trace).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);
        let back = read_span_json_lines(&bytes[..]).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(back.spans()[0].name, "predict");
        assert_eq!(back.spans()[1].parent, trace.spans()[1].parent);
        assert_eq!(back.spans()[0].tag("batch_size").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn json_lines_borrow_well_known_keys_even_when_escaped() {
        let line = concat!(
            r#"{"id":1,"trace_id":1,"name":"k","level":"Kernel","start_ns":0,"end_ns":1,"#,
            r#""parent":null,"tags":[["grid",{"Str":"[1,1,1]"}],["note",{"U64":1}],"#,
            r#"["stre\u0061m",{"U64":2}],["n\u006fte",{"U64":3}]],"logs":[]}"#,
            "\n"
        );
        let span = SpanJsonLinesReader::new(line.as_bytes())
            .next()
            .unwrap()
            .unwrap();
        assert_eq!(
            span.key_borrows(),
            [
                ("grid", true),
                ("note", false),
                ("stream", true),
                ("note", false)
            ]
        );
        assert!(
            matches!(&span.tags[0].1, crate::TagValue::Str(std::borrow::Cow::Owned(v)) if v == "[1,1,1]"),
            "decoded values stay owned"
        );
    }

    #[test]
    fn json_lines_skip_blank_lines() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&trace).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.extend_from_slice(b"\n\n");
        let back = read_span_json_lines(&bytes[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn store_ingest_takes_and_refuses_what_the_reader_does() {
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&Trace::from_spans(spans())).unwrap();
        let mut body = w.finish().unwrap();
        // A CRLF line, blank lines, escapes and a log.
        body.extend_from_slice(b"\r\n  \n");
        body.extend_from_slice(
            concat!(
                r#"{"name":"a\"b","id":9,"trace_id":1,"level":"Kernel","start_ns":5,"#,
                r#""end_ns":6,"tags":[["n\u006fte",{"Str":"x\ty"}]],"tags":[["k",{"Bool":true}]],"#,
                r#""logs":[{"at_ns":5,"message":"m\u00e9"}]}"#,
                "\r\n"
            )
            .as_bytes(),
        );
        let mut store = SpanStore::new();
        assert_eq!(
            read_span_json_lines_into_store(&body, &mut store).unwrap(),
            3
        );
        let read = read_span_json_lines(&body[..]).unwrap();
        assert_eq!(store.to_trace().spans(), read.spans());
        // The same errors, on the same lines.
        for bad in [
            &b"{\"id\":1}\n"[..],
            b"\n\xff\n",
            b"not a span",
            br#"{"id":1,"trace_id":1,"name":"n","level":"Model","start_ns":9,"end_ns":1,"tags":[],"logs":[]}"#,
        ] {
            let mut with_bad = body.clone();
            with_bad.extend_from_slice(bad);
            let got = read_span_json_lines_into_store(&with_bad, &mut SpanStore::new());
            let want = read_span_json_lines(&with_bad[..]);
            assert_eq!(
                got.unwrap_err().to_string(),
                want.unwrap_err().to_string()
            );
        }
    }

    #[test]
    fn json_lines_report_bad_line_numbers() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&trace).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.extend_from_slice(b"not a span\n");
        match read_span_json_lines(&bytes[..]) {
            Err(ReadError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn concatenated_streams_stay_readable() {
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&Trace::from_spans(spans())).unwrap();
        let mut bytes = w.finish().unwrap();
        let mut w2 = SpanJsonLinesWriter::new(Vec::new());
        w2.write_trace(&Trace::from_spans(spans())).unwrap();
        bytes.extend_from_slice(&w2.finish().unwrap());
        assert_eq!(read_span_json_lines(&bytes[..]).unwrap().len(), 4);
    }

    #[test]
    fn chrome_writer_emits_valid_envelope() {
        let trace = Trace::from_spans(spans());
        let mut w = ChromeTraceWriter::new(Vec::new()).unwrap();
        w.write_trace(&trace).unwrap();
        let json = String::from_utf8(w.finish().unwrap()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[1]["tid"], 2);
    }

    #[test]
    fn folded_writer_streams_runs() {
        let c = reconstruct_parents(&Trace::from_spans(spans()));
        let mut w = FoldedStacksWriter::new(Vec::new());
        w.write_run(&c).unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(out.contains("predict;conv2d/Conv2D "), "{out}");
    }
}
