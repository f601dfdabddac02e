//! Property tests for the tracing substrate: interval-tree queries vs a
//! naive oracle, parent-reconstruction invariants, and statistics bounds.

use proptest::prelude::*;
use std::collections::HashMap;
use xsp_trace::export::{
    ChromeTraceWriter, FoldedStacksWriter, SpanBinaryWriter, SpanJsonLinesWriter,
};
use xsp_trace::interval::{Interval, IntervalTree};
use xsp_trace::span::{tag_keys, Span, SpanId, TagValue};
use xsp_trace::stats::{percentile, trimmed_mean, Summary};
use xsp_trace::{
    reconstruct_parents, AmbiguityReport, CorrelationEngine, SpanBuilder, SpanFields, SpanStore,
    StackLevel, StoreCorrelationCache, Trace, TraceId,
};

/// The bytes of `spans` in span-JSON-lines, `.xspb` and Chrome, then the
/// folded stacks `folded` writes: the four writers an export dispatches to.
fn four_formats<S: SpanFields + Copy>(
    spans: impl Iterator<Item = S>,
    folded: impl FnOnce(&mut FoldedStacksWriter<Vec<u8>>) -> std::io::Result<()>,
) -> [Vec<u8>; 4] {
    let mut jsonl = SpanJsonLinesWriter::new(Vec::new());
    let mut xspb = SpanBinaryWriter::new(Vec::new()).unwrap();
    let mut chrome = ChromeTraceWriter::new(Vec::new()).unwrap();
    for span in spans {
        jsonl.write_span(span).unwrap();
        xspb.write_span(span).unwrap();
        chrome.write_span(span).unwrap();
    }
    let mut stacks = FoldedStacksWriter::new(Vec::new());
    folded(&mut stacks).unwrap();
    [
        jsonl.finish().unwrap(),
        xspb.finish().unwrap(),
        chrome.finish().unwrap(),
        stacks.finish().unwrap(),
    ]
}

fn arb_intervals(max_n: usize) -> impl Strategy<Value = Vec<Interval>> {
    prop::collection::vec((0u64..1000, 0u64..100), 0..max_n).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(k, (start, len))| Interval::new(start, start + len, k))
            .collect()
    })
}

proptest! {
    #[test]
    fn tree_containing_matches_naive(intervals in arb_intervals(120), lo in 0u64..1100, len in 0u64..120) {
        let hi = lo + len;
        let tree = IntervalTree::build(intervals.clone());
        let mut got = Vec::new();
        tree.containing_into(lo, hi, &mut got);
        got.sort_unstable();
        let mut want: Vec<usize> = intervals
            .iter()
            .filter(|iv| iv.contains_range(lo, hi))
            .map(|iv| iv.key)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn tree_depth_is_logarithmic(intervals in arb_intervals(256)) {
        let n = intervals.len();
        let tree = IntervalTree::build(intervals);
        if n > 0 {
            let bound = (n as f64).log2().ceil() as usize + 1;
            prop_assert!(tree.depth() <= bound, "depth {} for {} nodes", tree.depth(), n);
        }
    }

    /// Nested (non-overlapping-sibling) layer structures always reconstruct
    /// cleanly: every kernel's parent is the layer that contains it.
    #[test]
    fn reconstruction_recovers_nested_structure(
        layer_lens in prop::collection::vec(10u64..60, 1..12),
        kernel_fracs in prop::collection::vec((0.1f64..0.9, 0.02f64..0.08), 1..30),
    ) {
        let trace_id = TraceId(1);
        let mut spans = Vec::new();
        // model covers everything
        let total: u64 = layer_lens.iter().sum::<u64>() + 10;
        let model = SpanBuilder::new("model", StackLevel::Model, trace_id)
            .start(0)
            .finish(total + 10);
        spans.push(model);
        // consecutive layers
        let mut cursor = 5u64;
        let mut layer_bounds = Vec::new();
        for (i, len) in layer_lens.iter().enumerate() {
            let s = SpanBuilder::new(format!("layer{i}"), StackLevel::Layer, trace_id)
                .start(cursor)
                .tag(tag_keys::LAYER_INDEX, i as u64)
                .finish(cursor + len);
            layer_bounds.push((s.id, cursor, cursor + len));
            spans.push(s);
            cursor += len;
        }
        // kernels at fractional positions within random layers
        for (j, (frac, width)) in kernel_fracs.iter().enumerate() {
            let (lid, lo, hi) = layer_bounds[j % layer_bounds.len()];
            let span_len = hi - lo;
            let start = lo + (span_len as f64 * frac) as u64;
            let dur = ((span_len as f64) * width).max(1.0) as u64;
            let end = (start + dur).min(hi);
            if end <= start { continue; }
            let k = SpanBuilder::new(format!("kernel{j}"), StackLevel::Kernel, trace_id)
                .start(start)
                .finish(end);
            spans.push(k);
            let _ = lid;
        }
        let correlated = reconstruct_parents(&Trace::from_spans(spans));
        prop_assert!(correlated.ambiguities.is_clean(), "{:?}", correlated.ambiguities);
        for s in correlated.spans() {
            if s.level == StackLevel::Kernel {
                let parent = s.parent.expect("kernel parented");
                let p = &correlated.spans()[correlated.position(trace_id, parent).unwrap()];
                prop_assert_eq!(p.level, StackLevel::Layer);
                prop_assert!(p.contains(s));
            }
        }
    }

    #[test]
    fn trimmed_mean_within_min_max(samples in prop::collection::vec(-1e6f64..1e6, 1..50), trim in 0.0f64..0.49) {
        let tm = trimmed_mean(&samples, trim).unwrap();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(tm >= min - 1e-9 && tm <= max + 1e-9, "{tm} outside [{min}, {max}]");
    }

    #[test]
    fn percentiles_are_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let p25 = percentile(&samples, 25.0).unwrap();
        let p50 = percentile(&samples, 50.0).unwrap();
        let p75 = percentile(&samples, 75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
    }

    #[test]
    fn summary_invariants(samples in prop::collection::vec(0f64..1e9, 1..40)) {
        let s = Summary::of(&samples, 0.1).unwrap();
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.n, samples.len());
    }

    /// Streaming export round trip: the bytes of every span writer equal a
    /// reference encoding through `serde_json` — the span JSON of
    /// `serde_json::to_string(span)` and a Chrome event built through
    /// `serde_json::Map` — for arbitrary spans (names with JSON-hostile
    /// characters, every tag type and float edge, repeated tag keys, parent
    /// chains, logs); and write → read → write is a fixpoint in both the
    /// JSON-lines and the array framing.
    #[test]
    fn span_json_lines_roundtrip_is_byte_identical(specs in arb_span_specs()) {
        use xsp_trace::export::{
            from_span_json, read_span_json_lines, to_span_json, ChromeTraceWriter, ReadError,
            SpanJsonLinesWriter, SpanJsonWriter,
        };
        let trace = Trace::from_spans(build_spans(specs));

        let mut writer = SpanJsonLinesWriter::new(Vec::new());
        writer.write_trace(&trace).unwrap();
        let lines = writer.finish().unwrap();
        let reference: String = trace
            .spans()
            .iter()
            .map(|s| serde_json::to_string(s).unwrap() + "\n")
            .collect();
        prop_assert_eq!(String::from_utf8(lines.clone()).unwrap(), reference);

        // the array framing must agree with serde_json and the
        // materializing exporter
        let mut writer = SpanJsonWriter::new(Vec::new()).unwrap();
        writer.write_trace(&trace).unwrap();
        let array = String::from_utf8(writer.finish().unwrap()).unwrap();
        prop_assert_eq!(&array, &serde_json::to_string(trace.spans()).unwrap());
        prop_assert_eq!(&array, &to_span_json(&trace));

        let mut writer = ChromeTraceWriter::new(Vec::new()).unwrap();
        writer.write_trace(&trace).unwrap();
        let chrome = String::from_utf8(writer.finish().unwrap()).unwrap();
        prop_assert_eq!(chrome, reference_chrome_trace(trace.spans()));

        let finite = finite_tags(trace.spans().iter().cloned());
        if finite != trace.spans() {
            // A non-finite float is written as `{"F64":null}`, which no
            // reader accepts back.
            let bad = read_span_json_lines(&lines[..]);
            prop_assert!(matches!(bad, Err(ReadError::Parse { .. })), "{:?}", bad);
            prop_assert!(from_span_json(&array).is_err());
        }

        // Both framings survive their own round trip; the spans without
        // their non-finite tags stand in, so every case gets here.
        let trace = Trace::from_spans(finite);
        let mut writer = SpanJsonLinesWriter::new(Vec::new());
        writer.write_trace(&trace).unwrap();
        let first = writer.finish().unwrap();
        let back = read_span_json_lines(&first[..]).unwrap();
        prop_assert_eq!(back.len(), trace.len());

        let mut writer = SpanJsonLinesWriter::new(Vec::new());
        writer.write_trace(&back).unwrap();
        let second = writer.finish().unwrap();
        prop_assert_eq!(&first, &second, "write → read → write must be a fixpoint");

        let array = to_span_json(&trace);
        let reparsed = from_span_json(&array).unwrap();
        prop_assert_eq!(to_span_json(&reparsed), array);
    }

    /// The span reader accepts what `serde_json::from_str::<Span>` accepts
    /// and returns the same span: keys in any order (some spelled with
    /// `\u` escapes), insignificant whitespace, unknown keys with nested
    /// values, a missing `parent`, and repeated keys where the last wins,
    /// even over an earlier value of the wrong shape. Checked per line
    /// through the JSON-lines reader and for whole arrays, with newlines
    /// as whitespace, through `from_span_json`.
    #[test]
    fn span_reader_accepts_what_serde_json_accepts(
        specs in arb_span_specs(),
        seed in 0u64..u64::MAX,
    ) {
        use xsp_trace::export::{from_span_json, read_span_json_lines};
        let spans = finite_tags(build_spans(specs));
        let mut layout = Layout(seed);
        for span in &spans {
            let line = layout.span_object(span, false);
            let reference: Span = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(&reference, span, "{}", line);
            let ours = read_span_json_lines(line.as_bytes()).unwrap();
            prop_assert_eq!(ours.spans(), std::slice::from_ref(span), "{}", line);
        }
        let mut array = String::from("[");
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                array.push(',');
            }
            layout.ws(&mut array, true);
            array.push_str(&layout.span_object(span, true));
            layout.ws(&mut array, true);
        }
        array.push(']');
        let reference: Vec<Span> = serde_json::from_str(&array).unwrap();
        prop_assert_eq!(&reference, &spans);
        let ours = from_span_json(&array).unwrap();
        prop_assert_eq!(ours.spans(), &spans[..]);
    }
}

/// `spans` without their non-finite `F64` tags, which span JSON writes as
/// `null` and so cannot carry.
fn finite_tags(spans: impl IntoIterator<Item = Span>) -> Vec<Span> {
    spans
        .into_iter()
        .map(|mut s| {
            s.tags
                .retain(|(_, v)| !matches!(v, TagValue::F64(f) if !f.is_finite()));
            s
        })
        .collect()
}

/// The reference Chrome trace-event envelope: each event is built through
/// `serde_json::Map`, whose `insert` keeps a repeated key at its first
/// position with its last value.
fn reference_chrome_trace(spans: &[Span]) -> String {
    use serde_json::{json, Map, Value};
    let events: Vec<String> = spans
        .iter()
        .map(|span| {
            let mut args = Map::new();
            args.insert("span_id".into(), json!(span.id.0));
            if let Some(p) = span.parent {
                args.insert("parent".into(), json!(p.0));
            }
            for (k, v) in &span.tags {
                let value = match v {
                    TagValue::Str(s) => Value::String(s.to_string()),
                    TagValue::I64(i) => json!(i),
                    TagValue::U64(u) => json!(u),
                    TagValue::F64(f) => json!(f),
                    TagValue::Bool(b) => Value::Bool(*b),
                };
                args.insert(k.to_string(), value);
            }
            let mut event = Map::new();
            event.insert("name".into(), Value::String(span.name.clone()));
            event.insert("cat".into(), Value::String(span.level.to_string()));
            event.insert("ph".into(), json!("X"));
            event.insert("ts".into(), json!(span.start_ns as f64 / 1e3));
            event.insert("dur".into(), json!(span.duration_ns() as f64 / 1e3));
            event.insert("pid".into(), json!(span.trace_id.0));
            event.insert("tid".into(), json!(span.level.rank() as u64));
            event.insert("args".into(), Value::Object(args));
            serde_json::to_string(&Value::Object(event)).unwrap()
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// Seeded choices for spelling a span object in ways the writer never
/// does but a reader must accept.
struct Layout(u64);

impl Layout {
    fn pick(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// Insignificant whitespace; newlines only where the text is not one
    /// JSON line.
    fn ws(&mut self, out: &mut String, newlines: bool) {
        const WS: [&str; 6] = ["", "", " ", "\t", " \t ", "\r"];
        const NL: [&str; 2] = ["\n", "\r\n  "];
        let k = self.pick(WS.len() + if newlines { NL.len() } else { 0 });
        out.push_str(if k < WS.len() {
            WS[k]
        } else {
            NL[k - WS.len()]
        });
    }

    /// A key, sometimes with its first character as a `\u` escape.
    fn key(&mut self, out: &mut String, key: &str) {
        match key.chars().next() {
            Some(c) if c.is_ascii_alphanumeric() && self.pick(4) == 0 => {
                out.push_str(&format!("\"\\u{:04x}", c as u32));
                out.push_str(&serde_json::to_string(&key[1..]).unwrap()[1..]);
            }
            _ => out.push_str(&serde_json::to_string(key).unwrap()),
        }
    }

    fn value(&mut self, v: &serde_json::Value, newlines: bool, out: &mut String) {
        use serde_json::Value;
        match v {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out, newlines);
                    self.value(item, newlines, out);
                    self.ws(out, newlines);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out, newlines);
                    self.key(out, k);
                    self.ws(out, newlines);
                    out.push(':');
                    self.ws(out, newlines);
                    self.value(item, newlines, out);
                    self.ws(out, newlines);
                }
                out.push('}');
            }
            scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
        }
    }

    /// `span` as one JSON object: its members shuffled, a `null` parent
    /// sometimes left out, decoys of some members placed before them (the
    /// last key wins), and unknown members mixed in.
    fn span_object(&mut self, span: &Span, newlines: bool) -> String {
        const DECOYS: [&str; 8] = [
            r#""decoy""#,
            "-1",
            "1.5",
            "null",
            r#"{"U64":1}"#,
            r#"[["k",{"Bool":true}]]"#,
            r#""Kernel""#,
            r#"[{"at_ns":1,"message":"m"}]"#,
        ];
        const UNKNOWN: [(&str, &str); 4] = [
            ("x", r#"{"a":[1,{"b":null}],"c":"\u0041\n"}"#),
            ("ids", "[[[]],{},-0.5e-3,true,false]"),
            ("Span", r#"{"id":9,"name":{"Str":"n"}}"#),
            ("tags_", r#"[["k",{"F64":null}]]"#),
        ];
        let serde_json::Value::Object(map) = serde_json::to_value(span) else {
            unreachable!("a span serializes to an object")
        };
        let mut members: Vec<(String, serde_json::Value)> = Vec::new();
        for (k, v) in map.iter() {
            if k == "parent" && v.is_null() && self.pick(2) == 0 {
                continue;
            }
            members.push((k.clone(), v.clone()));
        }
        for i in (1..members.len()).rev() {
            let j = self.pick(i + 1);
            members.swap(i, j);
        }
        for i in (0..members.len()).rev() {
            if self.pick(3) == 0 {
                let decoy = serde_json::from_str(DECOYS[self.pick(DECOYS.len())]).unwrap();
                let at = self.pick(i + 1);
                members.insert(at, (members[i].0.clone(), decoy));
            }
        }
        for _ in 0..self.pick(3) {
            let (k, v) = UNKNOWN[self.pick(UNKNOWN.len())];
            let at = self.pick(members.len() + 1);
            members.insert(at, (k.to_owned(), serde_json::from_str(v).unwrap()));
        }
        let mut out = String::new();
        self.ws(&mut out, newlines);
        out.push('{');
        for (i, (k, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.ws(&mut out, newlines);
            self.key(&mut out, k);
            self.ws(&mut out, newlines);
            out.push(':');
            self.ws(&mut out, newlines);
            self.value(v, newlines, &mut out);
            self.ws(&mut out, newlines);
        }
        out.push('}');
        self.ws(&mut out, newlines);
        out
    }
}

proptest! {
    /// The correlation-engine refactor contract: for arbitrary span forests
    /// — overlapping layers (ambiguity), spans outside every candidate
    /// (orphans), async launch/execution pairs, unpaired halves, library
    /// spans, multiple runs — [`CorrelationEngine`] must produce exactly
    /// the spans, parents and ambiguity report of the
    /// naive oracle that rebuilds one interval tree per level per run.
    /// Spans are compared as span JSON, which carries each span's parent
    /// and every tag a launch folded in.
    #[test]
    fn engine_matches_naive_per_level_rebuild_oracle(spans in arb_correlation_forest()) {
        let trace = Trace::from_spans(spans);
        let (oracle_spans, oracle_ambiguities) = oracle_reconstruct(&trace);
        let got = CorrelationEngine::new().correlate(trace);

        prop_assert_eq!(got.len(), oracle_spans.len(), "span count diverged");
        for (g, o) in got.spans().iter().zip(&oracle_spans) {
            prop_assert_eq!(
                serde_json::to_string(g).unwrap(),
                serde_json::to_string(o).unwrap(),
                "span diverged"
            );
        }
        prop_assert_eq!(&got.ambiguities.ambiguous, &oracle_ambiguities.ambiguous);
        prop_assert_eq!(&got.ambiguities.orphans, &oracle_ambiguities.orphans);
    }

    /// The store-cache contract: growing a [`SpanStore`] by the same span
    /// stream at arbitrary batch boundaries, refreshing a
    /// [`StoreCorrelationCache`] after every batch, and writing the
    /// correlated store must reproduce the owned-trace engine exactly: the
    /// same bytes in all four formats (parents and folded launch tags
    /// included) and the same ambiguity report.
    #[test]
    fn store_cache_matches_batch_for_random_batch_splits(
        spans in arb_correlation_forest(),
        raw_cuts in prop::collection::vec(0usize..400, 0..6),
    ) {
        let batch = CorrelationEngine::new().correlate(Trace::from_spans(spans.clone()));

        // Random split points over the publication stream (empty batches
        // included when cuts collide).
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (spans.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(spans.len());

        let mut store = SpanStore::new();
        let mut cache = StoreCorrelationCache::new();
        let mut engine = CorrelationEngine::new();
        let mut prev = 0usize;
        for cut in cuts {
            for span in &spans[prev..cut] {
                store.push(span);
            }
            // Refresh after every batch: intermediate refreshes must not
            // disturb the final answer (prefix validation keeps finalized
            // runs cached).
            cache.refresh(&mut engine, &store);
            prev = cut;
        }
        let cached = cache.correlated(&store);

        prop_assert_eq!(cached.len(), batch.len(), "span count diverged");
        let got = four_formats(cached.rows(), |w| w.write_store(&cached));
        let want = four_formats(batch.iter_spans(), |w| w.write_run(&batch));
        for (format, (g, w)) in ["spans", "xspb", "chrome", "folded"].iter().zip(got.iter().zip(&want)) {
            prop_assert!(g == w, "{} bytes diverged", format);
        }
        let ambiguities = cached.ambiguities();
        prop_assert_eq!(&ambiguities.ambiguous, &batch.ambiguities.ambiguous);
        prop_assert_eq!(&ambiguities.orphans, &batch.ambiguities.orphans);
    }
}

/// One generated kernel-level participant:
/// `(kind, launch_start, launch_len, exec_start, exec_len)`.
type KernelSpec = (u8, u64, u64, u64, u64);

/// Random span forests over 1–2 runs: a model root, overlapping layers,
/// library spans, and kernels of every async flavor.
fn arb_correlation_forest() -> impl Strategy<Value = Vec<Span>> {
    (
        prop::collection::vec((0u64..9_000, 50u64..2_500, 0u8..4), 0..8),
        prop::collection::vec(
            (0u8..6, 0u64..10_400, 1u64..400, 0u64..11_000, 1u64..600),
            0..25,
        ),
        1usize..3,
    )
        .prop_map(|(layers, kernels, nruns)| {
            let mut spans = Vec::new();
            for run in 0..nruns as u64 {
                build_run_spans(TraceId(run + 1), &layers, &kernels, &mut spans);
            }
            spans
        })
}

fn build_run_spans(
    trace_id: TraceId,
    layers: &[(u64, u64, u8)],
    kernels: &[KernelSpec],
    out: &mut Vec<Span>,
) {
    // The model root covers [0, 10_000]; kernels may start beyond it so the
    // orphan path is exercised.
    let model = SpanBuilder::new("model", StackLevel::Model, trace_id)
        .start(0)
        .finish(10_000);
    let model_id = model.id;
    out.push(model);
    for (i, &(start, len, flavor)) in layers.iter().enumerate() {
        let mut b = SpanBuilder::new(format!("layer{i}"), StackLevel::Layer, trace_id).start(start);
        // Most layers carry their explicit parent (the framework knows it);
        // some do not, so layer→model reconstruction is exercised too.
        if flavor != 0 {
            b = b.parent(model_id);
        }
        out.push(b.finish(start + len));
        if flavor == 3 {
            // a library-level span nested in this layer
            let lib = SpanBuilder::new(format!("cudnnApi{i}"), StackLevel::Library, trace_id)
                .start(start + len / 4)
                .finish(start + len / 2);
            out.push(lib);
        }
    }
    for (j, &(kind, lstart, llen, xstart, xlen)) in kernels.iter().enumerate() {
        let cid = j as u64 + 1;
        let launch_parent = (j % 2 == 0).then_some(model_id);
        match kind {
            // plain (synchronous) kernel span
            0 => out.push(
                SpanBuilder::new(format!("plain{j}"), StackLevel::Kernel, trace_id)
                    .start(xstart)
                    .finish(xstart + xlen),
            ),
            // async pair: launch + execution linked by correlation id
            1 => {
                out.push(
                    launch_half(
                        SpanBuilder::new(format!("launch{j}"), StackLevel::Kernel, trace_id)
                            .start(lstart)
                            .tag(tag_keys::CORRELATION_ID, cid)
                            .tag(tag_keys::ASYNC_LAUNCH, true),
                        launch_parent,
                    )
                    .finish(lstart + llen),
                );
                out.push(
                    SpanBuilder::new(format!("exec{j}"), StackLevel::Kernel, trace_id)
                        .start(xstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_EXECUTION, true)
                        .tag(tag_keys::FLOP_COUNT_SP, 1000u64)
                        .finish(xstart + xlen),
                );
            }
            // unpaired launch (kernel never ran)
            2 => out.push(
                launch_half(
                    SpanBuilder::new(format!("lost_launch{j}"), StackLevel::Kernel, trace_id)
                        .start(lstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_LAUNCH, true),
                    launch_parent,
                )
                .finish(lstart + llen),
            ),
            // unpaired execution (callback dropped)
            3 => out.push(
                SpanBuilder::new(format!("lost_exec{j}"), StackLevel::Kernel, trace_id)
                    .start(xstart)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_EXECUTION, true)
                    .finish(xstart + xlen),
            ),
            // execution that arrives before its launch in publication order
            4 => {
                out.push(
                    SpanBuilder::new(format!("exec_first{j}"), StackLevel::Kernel, trace_id)
                        .start(xstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_EXECUTION, true)
                        .finish(xstart + xlen),
                );
                out.push(
                    launch_half(
                        SpanBuilder::new(format!("late_launch{j}"), StackLevel::Kernel, trace_id)
                            .start(lstart)
                            .tag(tag_keys::CORRELATION_ID, cid)
                            .tag(tag_keys::ASYNC_LAUNCH, true),
                        launch_parent,
                    )
                    .finish(lstart + llen),
                );
            }
            // already-merged capture span: both flags, takes part in no
            // pairing (idempotent re-correlation)
            _ => out.push(
                SpanBuilder::new(format!("premerged{j}"), StackLevel::Kernel, trace_id)
                    .start(xstart)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_LAUNCH, true)
                    .tag(tag_keys::ASYNC_EXECUTION, true)
                    .finish(xstart + xlen),
            ),
        }
    }
}

/// The rest of a generated launch half: an explicit parent on every other
/// launch (a merge hands it to the execution), and three tags — one key
/// only the launch carries, one repeated inside the launch (the first
/// occurrence is the one a merge folds in), and one the execution already
/// carries (a merge keeps the execution's value).
fn launch_half(b: SpanBuilder, parent: Option<SpanId>) -> SpanBuilder {
    b.maybe_parent(parent)
        .tag("grid", "128x1x1")
        .tag("stream", 3i64)
        .tag("stream", 7i64)
        .tag(tag_keys::FLOP_COUNT_SP, 5u64)
}

/// The pre-engine implementation, kept verbatim as the oracle: one interval
/// tree per level, rebuilt per run, spans cloned per run.
fn oracle_reconstruct(trace: &Trace) -> (Vec<Span>, AmbiguityReport) {
    let mut spans = Vec::new();
    let mut ambiguities = AmbiguityReport::default();
    for tid in trace.trace_ids() {
        let run: Vec<Span> = trace
            .spans()
            .iter()
            .filter(|s| s.trace_id == tid)
            .cloned()
            .collect();
        let (s, a) = oracle_single_run(&run);
        spans.extend(s);
        ambiguities.merge(a);
    }
    (spans, ambiguities)
}

/// The naive async merge: an execution half takes the parent and the
/// missing tags of the last launch half with its correlation id, a launch
/// half with an execution disappears into it, everything else (unpaired
/// halves, spans carrying both flags) passes through unchanged. Each span
/// comes with the interval parent matching probes first: a merged pair's
/// launch interval, otherwise the span's own.
fn oracle_merge(spans: &[Span]) -> Vec<(Span, (u64, u64))> {
    let role = |s: &Span| match s.correlation_id() {
        Some(cid) => match (s.is_async_launch(), s.is_async_execution()) {
            (true, false) => Some((cid, true)),
            (false, true) => Some((cid, false)),
            _ => None,
        },
        None => None,
    };
    let launch_of = |cid: u64| spans.iter().rev().find(|s| role(s) == Some((cid, true)));
    let has_execution = |cid: u64| spans.iter().any(|s| role(s) == Some((cid, false)));
    let mut out = Vec::new();
    for s in spans {
        let mut span = s.clone();
        let mut anchor = (s.start_ns, s.end_ns);
        match role(s) {
            Some((cid, true)) if has_execution(cid) => continue,
            Some((cid, false)) => {
                if let Some(launch) = launch_of(cid) {
                    span.parent = launch.parent;
                    for (k, v) in &launch.tags {
                        if span.tag(k).is_none() {
                            span.tags.push((k.clone(), v.clone()));
                        }
                    }
                    anchor = (launch.start_ns, launch.end_ns);
                }
            }
            _ => {}
        }
        out.push((span, anchor));
    }
    out
}

fn oracle_single_run(spans: &[Span]) -> (Vec<Span>, AmbiguityReport) {
    let (mut correlated, anchors): (Vec<Span>, Vec<(u64, u64)>) =
        oracle_merge(spans).into_iter().unzip();
    let levels: Vec<StackLevel> = StackLevel::ALL
        .iter()
        .copied()
        .filter(|l| correlated.iter().any(|s| s.level == *l))
        .collect();
    let mut trees: HashMap<StackLevel, IntervalTree> = HashMap::new();
    for &level in &levels {
        let intervals: Vec<Interval> = correlated
            .iter()
            .enumerate()
            .filter(|(_, s)| s.level == level)
            .map(|(i, s)| Interval::new(s.start_ns, s.end_ns, i))
            .collect();
        trees.insert(level, IntervalTree::build(intervals));
    }
    let mut ambiguities = AmbiguityReport::default();
    for i in 0..correlated.len() {
        if correlated[i].parent.is_some() {
            continue;
        }
        let child_level = correlated[i].level;
        let Some(pos) = levels.iter().position(|l| *l == child_level) else {
            continue;
        };
        if pos == 0 {
            continue;
        }
        let mut probes: Vec<(u64, u64)> = vec![anchors[i]];
        let own = (correlated[i].start_ns, correlated[i].end_ns);
        if probes[0] != own {
            probes.push(own);
        }
        let mut candidates: Vec<usize> = Vec::new();
        'search: for ancestor in (0..pos).rev() {
            let tree = &trees[&levels[ancestor]];
            for &(lo, hi) in &probes {
                candidates.clear();
                tree.containing_into(lo, hi, &mut candidates);
                candidates.retain(|&c| c != i);
                if !candidates.is_empty() {
                    break 'search;
                }
            }
        }
        match candidates.len() {
            0 => ambiguities.orphans.push(correlated[i].id),
            1 => correlated[i].parent = Some(correlated[candidates[0]].id),
            _ => {
                let best = *candidates
                    .iter()
                    .min_by_key(|&&c| correlated[c].end_ns - correlated[c].start_ns)
                    .expect("nonempty");
                let all: Vec<SpanId> = candidates.iter().map(|&c| correlated[c].id).collect();
                ambiguities.ambiguous.push((correlated[i].id, all));
                correlated[i].parent = Some(correlated[best].id);
            }
        }
    }
    (correlated, ambiguities)
}

/// Raw generator output for one span: `(name index, level index, start,
/// len, parent back-reference, tags as (key index, value index), log
/// count)`.
type SpanSpec = (usize, usize, u64, u64, usize, Vec<(usize, usize)>, usize);

fn arb_span_specs() -> impl Strategy<Value = Vec<SpanSpec>> {
    prop::collection::vec(
        (
            0usize..7,
            0usize..5,
            0u64..1_000_000_000,
            0u64..1_000_000,
            0usize..4,
            prop::collection::vec((0usize..TAG_KEYS.len(), 0usize..18), 0..6),
            0usize..3,
        ),
        0..30,
    )
}

/// Tag keys: few enough that keys repeat within a span, including the
/// two the Chrome writer puts into `args` itself.
const TAG_KEYS: [&str; 8] = [
    "note",
    "signed",
    tag_keys::FLOP_COUNT_SP,
    "occ",
    "span_id",
    "parent",
    "ctl\u{1}key",
    "ключ",
];

fn tag_value(ix: usize, start: u64) -> TagValue {
    match ix {
        0 => TagValue::Str("string \"tag\"\n".into()),
        1 => TagValue::Str("ctl\u{0}\u{1f}\u{7f} é⟨⟩".into()),
        2 => TagValue::I64(-42),
        3 => TagValue::I64(i64::MIN),
        4 => TagValue::I64(7),
        5 => TagValue::U64(u64::MAX),
        6 => TagValue::U64(0),
        7 => TagValue::F64(0.1 + start as f64 * 1e-3),
        8 => TagValue::F64(f64::NAN),
        9 => TagValue::F64(f64::INFINITY),
        10 => TagValue::F64(f64::NEG_INFINITY),
        11 => TagValue::F64(-0.0),
        12 => TagValue::F64(1e300),
        13 => TagValue::F64(5e-324),
        14 => TagValue::F64(1000.0),
        15 => TagValue::F64(-2.5e-7),
        16 => TagValue::Bool(true),
        _ => TagValue::Bool(false),
    }
}

fn build_spans(specs: Vec<SpanSpec>) -> Vec<xsp_trace::Span> {
    // JSON-hostile names: separators, quotes, escapes, control chars,
    // non-ASCII — the reader must get back exactly what the writer saw.
    let names = [
        "model_prediction",
        "conv2d 1/Conv2D;fused",
        "say \"hi\"",
        "tab\tand\nnewline",
        "uni⟨code⟩ kernel λ",
        "back\\slash",
        "ctl\u{0}\u{8}\u{c}\r\u{1b}",
    ];
    let mut spans: Vec<xsp_trace::Span> = Vec::with_capacity(specs.len());
    for (name_ix, level_ix, start, len, parent_back, tags, logs) in specs {
        let level = StackLevel::ALL[level_ix % StackLevel::ALL.len()];
        let mut builder =
            SpanBuilder::new(names[name_ix % names.len()], level, TraceId(1)).start(start);
        if parent_back > 0 && !spans.is_empty() {
            builder = builder.parent(spans[(parent_back - 1) % spans.len()].id);
        }
        for (key, value) in tags {
            builder = builder.tag(TAG_KEYS[key], tag_value(value, start));
        }
        for l in 0..logs {
            builder = builder.log(start + l as u64, format!("event {l}\u{2} ⟨λ⟩"));
        }
        spans.push(builder.finish(start + len));
    }
    spans
}
