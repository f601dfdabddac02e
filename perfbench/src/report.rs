//! Turns an [`Outcome`] into the named metrics and prints them: one line
//! per metric for people, then the result object as the last line.

use crate::rec::{Counted, SpanRec};
use crate::run_loop::Outcome;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// End-to-end metrics, from the untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Timed public calls: metric prefix and the span name that times the call.
/// Each yields `<prefix>_ms`, `<prefix>.allocs` and `<prefix>.alloc_bytes`
/// (`analysis.ms` keeps the bare `ms` suffix).
pub const CALLS: [(&str, &str); 23] = [
    ("models.graph_ms", "models.graph"),
    ("framework.predict_ms", "framework.predict"),
    ("pipeline.run_m_ms", "pipeline.run_m"),
    ("pipeline.run_ml_ms", "pipeline.run_ml"),
    ("pipeline.run_mlg_ms", "pipeline.run_mlg"),
    ("pipeline.run_metrics_ms", "pipeline.run_metrics"),
    ("pipeline.extract_ms", "pipeline.extract"),
    ("profile.run_ms", "profile.run"),
    ("analysis.ms", "analysis"),
    ("export.chrome_ms", "export.chrome"),
    ("export.folded_ms", "export.folded"),
    ("export.spans_ms", "export.spans"),
    ("export.xspb_ms", "export.xspb"),
    ("trace.parse_jsonl_ms", "trace.parse_jsonl"),
    ("trace.parse_xspb_ms", "trace.parse_xspb"),
    ("trace.correlate_ms", "trace.correlate"),
    ("cache.fingerprint_ms", "cache.fingerprint"),
    ("cache.disk_load_ms", "cache.disk_load"),
    ("serving.simulate_ms", "serving.simulate"),
    ("serving.schedule_ms", "serving.schedule"),
    ("daemon.client_encode_ms", "daemon.client_encode"),
    ("daemon.session_append_ms", "daemon.session_append"),
    ("daemon.session_export_ms", "daemon.session_export"),
];

/// Exact per-op counters (means over the first rotation of inputs).
pub const COUNTERS: [&str; 13] = [
    "export.bytes_out",
    "trace.trees_built",
    "trace.spans_per_op",
    "cache.hits",
    "cache.misses",
    "cache.disk_hits",
    "cache.cold_profiles",
    "serving.steps",
    "serving.spans_streamed",
    "daemon.correlation_passes",
    "daemon.export_cache_hits",
    "daemon.appends",
    "daemon.acked_spans",
];

/// Layers whose self time the traced run reports, as span-name prefixes.
pub const LAYERS: [&str; 10] = [
    "models",
    "framework",
    "pipeline",
    "profile",
    "analysis",
    "export",
    "trace",
    "cache",
    "serving",
    "daemon",
];

/// Metrics a workload derives from its own spans (see each workload).
pub const DERIVED: [(&str, &str); 9] = [
    ("scheduler.speedup", "x"),
    ("serving.stream_ms", "ms"),
    ("daemon.transport_ms", "ms"),
    ("append_ms_p50", "ms"),
    ("append_ms_p90", "ms"),
    ("export_ms_p50", "ms"),
    ("export_ms_p90", "ms"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
];

/// Metrics about the traced run itself.
pub const BENCH: [(&str, &str); 3] = [
    ("bench.tracing_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("bench.count_mismatches", "count"),
];

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (metric, _) in CALLS {
        let prefix = call_prefix(metric);
        names.push((metric.to_owned(), "ms"));
        names.push((format!("{prefix}.allocs"), "count"));
        names.push((format!("{prefix}.alloc_bytes"), "B"));
    }
    for c in COUNTERS {
        names.push((c.to_owned(), "count"));
    }
    for layer in LAYERS {
        names.push((format!("self.{layer}_ms"), "ms"));
    }
    for (m, u) in DERIVED.iter().chain(BENCH.iter()) {
        names.push(((*m).to_owned(), *u));
    }
    names
}

/// `pipeline.run_m_ms` -> `pipeline.run_m`; `analysis.ms` -> `analysis`.
fn call_prefix(metric: &str) -> &str {
    metric
        .strip_suffix("_ms")
        .or_else(|| metric.strip_suffix(".ms"))
        .unwrap_or(metric)
}

/// Percentile by linear interpolation between closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&out.setup_s));
    m.insert("ops_per_s", out.op_ms.len() as f64 / out.wall_s);
    m.insert("op_ms_p50", percentile(&out.op_ms, 50.0));
    m.insert("op_ms_p90", percentile(&out.op_ms, 90.0));
    m.insert("peak_rss_mb", out.peak_rss_mb);
    m
}

/// Span bookkeeping shared by the per-layer computations.
pub struct SpanIndex<'a> {
    pub spans: &'a [SpanRec],
    /// Whether each span sits under a `probe` root (a re-enacted call)
    /// rather than under an `op` root.
    pub in_probe: Vec<bool>,
    /// Ops of the traced phase, and those in its first rotation.
    pub ops: f64,
    pub first_cycle_ops: f64,
    pub probed_ops: f64,
    first_cycle: std::collections::HashSet<u32>,
}

impl<'a> SpanIndex<'a> {
    pub fn new(out: &'a Outcome) -> Self {
        let spans = &out.spans[..];
        // A parent is always recorded before its children.
        let mut in_probe: Vec<bool> = Vec::with_capacity(spans.len());
        for s in spans {
            let probe = match s.parent {
                Some(p) => in_probe[p as usize],
                None => s.name == "probe",
            };
            in_probe.push(probe);
        }
        let first_cycle: std::collections::HashSet<u32> = out
            .ops
            .iter()
            .filter(|o| o.first_cycle)
            .map(|o| o.op)
            .collect();
        Self {
            spans,
            in_probe,
            ops: spans.iter().filter(|s| s.name == "op").count().max(1) as f64,
            first_cycle_ops: first_cycle.len().max(1) as f64,
            probed_ops: out.probed_ops.max(1) as f64,
            first_cycle,
        }
    }

    /// Sums `value` over the spans named `name`, per op: over the op trees
    /// when the op itself makes the call, else over the probes that
    /// re-enact it. `first_cycle` restricts op-tree spans to the first
    /// rotation (for exact counts).
    fn per_op(&self, name: &str, first_cycle: bool, value: impl Fn(&SpanRec) -> u64) -> f64 {
        let (mut op, mut probe) = (None::<u64>, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            if self.in_probe[i] {
                probe += value(s);
            } else {
                let keep = !first_cycle || self.first_cycle.contains(&s.op);
                *op.get_or_insert(0) += if keep { value(s) } else { 0 };
            }
        }
        match op {
            Some(sum) if first_cycle => sum as f64 / self.first_cycle_ops,
            Some(sum) => sum as f64 / self.ops,
            None => probe as f64 / self.probed_ops,
        }
    }

    /// Duration of every call named `name` that an op made itself, ms.
    pub fn op_call_durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.in_probe)
            .filter(|(s, &probe)| !probe && s.name == name)
            .map(|(s, _)| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Mean time per op in calls named `name`, ms.
    pub fn call_ms(&self, name: &str) -> f64 {
        self.per_op(name, false, SpanRec::dur_ns) / 1e6
    }

    /// Mean allocations (count, bytes) per op in calls named `name`, over
    /// the first rotation.
    pub fn call_allocs(&self, name: &str) -> (f64, f64) {
        (
            self.per_op(name, true, |s| s.allocs.allocs),
            self.per_op(name, true, |s| s.allocs.bytes),
        )
    }

    /// Self time per layer over the op trees (ms per op), and the share of
    /// op time no layer span covers (%).
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut op_ns, mut unattributed_ns) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if self.in_probe[i] {
                continue;
            }
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            if s.name == "op" {
                op_ns += s.dur_ns();
                unattributed_ns += own;
            } else {
                *per_layer.entry(s.layer()).or_default() += own as f64 / 1e6 / self.ops;
            }
        }
        (
            per_layer,
            100.0 * unattributed_ns as f64 / op_ns.max(1) as f64,
        )
    }

    /// Ops whose exact counts differ from the first op on the same input,
    /// each paired with that first op: counters plus the allocations of
    /// every deterministic op-tree call.
    pub fn count_mismatches(&self, out: &Outcome) -> Vec<(u32, u32)> {
        // Per op: (call or counter name, allocations or value, bytes).
        type Signature<'s> = Vec<(&'s str, u64, u64)>;
        let mut signature: HashMap<u32, Signature> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !self.in_probe[i] && s.counted == Counted::Exact {
                signature
                    .entry(s.op)
                    .or_default()
                    .push((s.name, s.allocs.allocs, s.allocs.bytes));
            }
        }
        let mut seen: HashMap<u64, (u32, Signature)> = HashMap::new();
        let mut mismatches = Vec::new();
        for op in out.ops.iter().filter(|o| !o.probe) {
            let mut sig = signature.remove(&op.op).unwrap_or_default();
            sig.extend(op.counters.iter().map(|(n, v)| (*n, *v, 0)));
            match seen.get(&op.key) {
                Some((first, first_sig)) if *first_sig != sig => mismatches.push((op.op, *first)),
                Some(_) => {}
                None => {
                    seen.insert(op.key, (op.op, sig));
                }
            }
        }
        mismatches
    }
}

/// The per-layer metrics every traced run reports; `derived` holds the
/// workload's own derived values (absent ones read 0: the workload never
/// makes that call).
pub fn per_layer(
    out: &Outcome,
    derived: &HashMap<&'static str, f64>,
) -> Vec<(String, f64, &'static str)> {
    let idx = SpanIndex::new(out);
    let mut values: HashMap<String, f64> = HashMap::new();
    for (metric, span) in CALLS {
        let prefix = call_prefix(metric);
        values.insert(metric.to_owned(), idx.call_ms(span));
        let (allocs, bytes) = idx.call_allocs(span);
        values.insert(format!("{prefix}.allocs"), allocs);
        values.insert(format!("{prefix}.alloc_bytes"), bytes);
    }
    // Counters: first-rotation ops over their count, probes over theirs.
    let mut sums: HashMap<(&str, bool), u64> = HashMap::new();
    for op in out.ops.iter().filter(|o| o.first_cycle || o.probe) {
        for (name, v) in &op.counters {
            *sums.entry((name, op.probe)).or_default() += v;
        }
    }
    for c in COUNTERS {
        let of = |probe| *sums.get(&(c, probe)).unwrap_or(&0) as f64;
        values.insert(
            c.to_owned(),
            of(false) / idx.first_cycle_ops + of(true) / idx.probed_ops,
        );
    }
    let (self_ms, unattributed) = idx.self_times();
    for layer in LAYERS {
        values.insert(
            format!("self.{layer}_ms"),
            *self_ms.get(layer).unwrap_or(&0.0),
        );
    }
    values.insert("alloc.count_per_op".into(), out.alloc_per_op.0);
    values.insert("alloc.bytes_per_op".into(), out.alloc_per_op.1);
    let overhead = 100.0 * (median(&out.op_ms) / median(&out.baseline_op_ms) - 1.0);
    values.insert("bench.tracing_overhead_pct".into(), overhead);
    values.insert("bench.unattributed_pct".into(), unattributed);
    values.insert("bench.count_mismatches".into(), out.count_mismatches as f64);
    for (k, v) in derived {
        values.insert((*k).to_owned(), *v);
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}

/// Formats a metric value: every digit as measured, JSON-safe.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Prints the human report, then the result object as the last line.
pub fn print(header: &str, out: &Outcome, metrics: &[(String, f64, &'static str)], correct: bool) {
    println!("{header}");
    println!(
        "attempted={} failed={} fail_ratio={} timed_wall_s={:.3} ops={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.wall_s,
        out.op_ms.len()
    );
    for line in &out.notes {
        println!("{line}");
    }
    for f in out.failures.iter().take(10) {
        println!("FAIL {f}");
    }
    for (name, v, unit) in metrics {
        println!("{name:<34} {:>16} {unit}", num(*v));
    }
    let mut json = String::new();
    write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    )
    .unwrap();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        )
        .unwrap();
    }
    json.push_str("}}");
    println!("{json}");
}

/// Writes the traced run's spans as Chrome trace events (`chrome://tracing`,
/// Perfetto): one complete event per span, op id, parent and allocations
/// in its args.
pub fn write_chrome(
    path: &std::path::Path,
    header: &str,
    spans: &[SpanRec],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let meta = header.replace('\\', "\\\\").replace('"', "\\\"");
    write!(
        f,
        "{{\"otherData\": {{\"run\": \"{meta}\"}}, \"traceEvents\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or(-1, i64::from);
        write!(
            f,
            "{sep}\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"op\": {}, \"parent\": {parent}, \
             \"allocs\": {}, \"alloc_bytes\": {}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.allocs.allocs,
            s.allocs.bytes
        )?;
    }
    writeln!(f, "\n]}}")?;
    f.flush()
}
