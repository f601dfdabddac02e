//! `xsp` — command-line front-end for across-stack profiling.
//!
//! ```console
//! $ xsp list-models                      # the 65-model zoo
//! $ xsp list-systems                     # the 5 evaluation systems
//! $ xsp profile --model MLPerf_ResNet50_v1.5 --batch 64 \
//!       --analyses a2,a10,a15 --flamegraph /tmp/r50.folded
//! $ xsp sweep --model Inception_v3      # A1 table + optimal batch size
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use xsp_core::analysis::{self, AxAnalysis};
use xsp_core::export::{export_correlated, export_profile, ExportFormat, ExportSink};
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::report::{fmt_bound, fmt_mb, fmt_ms, fmt_pct, Table};
use xsp_core::scheduler::Parallelism;
use xsp_core::serving::{
    simulate_streaming, ArrivalTrace, ServingConfig, ServingModel, ServingReport,
};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::transformer::DecodeAttention;
use xsp_models::zoo;

fn usage() -> &'static str {
    "xsp — across-stack profiling of ML models on (simulated) GPUs

USAGE:
  xsp list-models
  xsp list-systems
  xsp profile --model <NAME> [--batch <N>] [--system <NAME>]
              [--framework tensorflow|mxnet] [--runs <N>] [--threads <T>]
              [--analyses a2,a6,a10,a15,...] [--library-level]
              [--chrome <out.json>] [--flamegraph <out.folded>]
  xsp export  --model <NAME> [--format spans|xspb|chrome|folded]
              [--level 1|2|3] [-o <PATH> | --sink <PATH>] [--batch <N>]
              [--system <NAME>] [--framework tensorflow|mxnet] [--runs <N>]
              [--threads <T>]
  xsp export  --from <trace.jsonl|trace.xspb>
              [--format spans|xspb|chrome|folded] [-o <PATH>]
  xsp analyze --ax <1|2|3|4> --model <NAME> [--batch <N>] [--system <NAME>]
              [--framework tensorflow|mxnet] [--runs <N>] [--threads <T>]
              ax4 only: [--max-batch <N>] [--requests <N>] [--rate <REQ/S>]
              [--prompt <LO-HI>] [--decode <LO-HI>] [--seed <N>]
              [--cache-bucket <N>] [--fused] [--level 1|2|3]
              [--trace <out.jsonl>]
  xsp sweep   --model <NAME> [--system <NAME>] [--framework tensorflow|mxnet]
              [--threads <T>]
  xsp serve   --socket <PATH> [--quota <SPANS>] [--idle-timeout <SECS>]
  xsp cache   stats|warm|clear --cache-dir <DIR>
              warm: --model <NAME> [--batch <N>] [--level 1|2|3]
              [--system <NAME>] [--framework tensorflow|mxnet] [--runs <N>]

EXPORT:   streams the trace to -o (stdout by default) without ever holding
          the serialized trace in memory. Formats: `spans` (span-JSON-lines,
          the offline-analysis interchange), `xspb` (compact span binary,
          same span sequence), `chrome` (chrome://tracing / Perfetto),
          `folded` (flamegraph.pl / speedscope). --level picks the
          profiling depth: 1 = M, 2 = M/L, 3 = M/L/G + metrics (the
          default). Output is byte-identical for every --threads setting.
          --from skips profiling entirely: it re-correlates a saved capture
          (span-JSON-lines or .xspb, auto-detected from the magic bytes)
          offline (§III-A) and converts it to any format —
          `xsp export --from trace.xspb --format chrome` emits the same
          bytes a live chrome export of that profile would.
          --sink streams runs to PATH *while profiling runs* instead of
          exporting afterwards; the extension picks the format (.jsonl
          spans, .xspb binary, .json chrome, .folded flamegraph) and the
          bytes are identical to the matching post-hoc -o export.

CACHE:    operates the content-addressed profile cache. Profiles are
          addressed by a 128-bit fingerprint over the graph, framework,
          system, level, mode, and measurement policy — independent of the
          worker count — and persisted as `.xspc` files. `stats` lists the
          directory (corrupt files are reported and ignored), `warm`
          profiles a model into it, `clear` deletes the `.xspc` files.
          Any profiling command accepts --cached (consult the in-process
          cache) and --cache-dir <DIR> (also rebuild from / persist to
          disk; implies --cached; the XSP_CACHE_DIR environment variable
          sets the default). Warm runs export byte-identically to cold
          runs at any --threads setting.

SERVE:    runs the resident profiling daemon (`xspd`) on a Unix socket:
          clients open sessions and stream span batches through the framed
          protocol, with per-session quotas bounding memory and live export
          served from in-flight sessions (see ARCHITECTURE.md). SIGTERM
          drains every session to its sink before exiting.

ANALYZE:  runs one extension analysis end to end. --ax accepts 1|ax1|library
          (library-call table; enables the library level itself),
          2|ax2|host (host/dispatch attribution; enables the host level),
          3|ax3|workload (kernel families + compute regime), and
          4|ax4|serving (continuous-batching serving simulation:
          tokens/sec vs decode occupancy, prefill/decode/idle latency
          split, KV-cache roofline). ax4 serves the model with a seeded
          synthetic arrival trace — --requests arrivals at --rate req/s,
          prompt/decode token counts drawn uniformly from --prompt/--decode
          (inclusive LO-HI ranges) — through a continuous-batching
          scheduler with --max-batch slots; --fused switches the decode
          attention to the fused (FlashAttention-style) lowering, and
          --trace streams the per-step span trace to a JSONL file. Tables
          are byte-identical for every --threads setting.

ANALYSES: a1 (via sweep), a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
          a13, a14, a15, ax1 (library level; needs --library-level),
          ax2 (host level; needs --host-level), ax3 (kernel latency by
          family / compute regime). ax4 profiles a serving workload, not
          one inference — use `xsp analyze --ax 4`.

THREADS:  worker count of the parallel evaluation engine: a number, `auto`
          (one per core, the default), or `serial`/`1` (single-threaded, for
          debugging). The XSP_THREADS environment variable sets the default;
          --threads overrides it. Results are byte-identical either way.

MODELS:   --model accepts the exact zoo name (see `xsp list-models`) or any
          case-insensitive unambiguous prefix (`-` and `_` interchangeable):
          `bert-base` resolves to BERT-Base_SQuAD_384.
"
}

struct Args {
    cmd: String,
    /// Optional sub-verb: the one bare word a command may take before its
    /// flags (`xsp cache stats`).
    verb: Option<String>,
    flags: HashMap<String, String>,
}

fn parse_args() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next()?;
    let mut verb: Option<String> = None;
    let mut flags = HashMap::new();
    let mut key: Option<String> = None;
    for a in argv {
        // `-o` is the conventional short spelling for the output path.
        let stripped = a
            .strip_prefix("--")
            .or_else(|| if a == "-o" { Some("out") } else { None });
        if let Some(stripped) = stripped {
            if let Some(k) = key.take() {
                flags.insert(k, "true".to_owned()); // boolean flag
            }
            key = Some(stripped.to_owned());
        } else if let Some(k) = key.take() {
            flags.insert(k, a);
        } else if verb.is_none() && flags.is_empty() {
            // One leading positional sub-verb (`xsp cache stats`); any
            // later stray positional is still rejected.
            verb = Some(a);
        } else {
            eprintln!("unexpected argument: {a}");
            return None;
        }
    }
    if let Some(k) = key.take() {
        flags.insert(k, "true".to_owned());
    }
    Some(Args { cmd, verb, flags })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    // Only `cache` takes a sub-verb; a stray positional anywhere else is
    // the same parse error it always was.
    if args.cmd != "cache" {
        if let Some(verb) = &args.verb {
            eprintln!("unexpected argument: {verb}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    }
    match args.cmd.as_str() {
        "list-models" => list_models(),
        "list-systems" => list_systems(),
        "profile" => profile(&args.flags),
        "analyze" => analyze(&args.flags),
        "export" => export(&args.flags),
        "serve" => serve(&args.flags),
        "sweep" => sweep(&args.flags),
        "cache" => cache_cmd(args.verb.as_deref(), &args.flags),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn list_models() -> ExitCode {
    let mut t = Table::new(
        "Model zoo (Table VIII ids 1-55, transformer tier 56-58)",
        &["ID", "Name", "Task", "Accuracy", "Graph (MB)"],
    );
    for m in zoo::all_models() {
        t.row(vec![
            m.id.to_string(),
            m.name.to_owned(),
            m.task.code().to_owned(),
            m.accuracy_cell(),
            format!("{:.1}", m.graph_size_mb),
        ]);
    }
    println!("{t}");
    println!("MXNet counterparts (Table X): ids 4, 5, 6, 8, 10, 11, 18, 23, 28, 34");
    ExitCode::SUCCESS
}

fn list_systems() -> ExitCode {
    let mut t = Table::new(
        "Evaluation systems (Table VII)",
        &["Name", "GPU", "Architecture", "TFLOPS", "GB/s", "Ideal AI"],
    );
    for s in systems::all() {
        t.row(vec![
            s.name.clone(),
            s.gpu.name.clone(),
            s.gpu.arch.to_string(),
            format!("{:.1}", s.gpu.peak_tflops),
            format!("{:.0}", s.gpu.mem_bandwidth_gbps),
            format!("{:.2}", s.ideal_arithmetic_intensity()),
        ]);
    }
    println!("{t}");
    ExitCode::SUCCESS
}

fn build_xsp(flags: &HashMap<String, String>) -> Result<(Xsp, xsp_gpu::System), String> {
    let (cfg, system) = build_config(flags)?;
    Ok((Xsp::new(cfg), system))
}

fn build_config(flags: &HashMap<String, String>) -> Result<(XspConfig, xsp_gpu::System), String> {
    let system_name = flags
        .get("system")
        .map(|s| s.as_str())
        .unwrap_or("Tesla_V100");
    let system = systems::by_name(system_name)
        .ok_or_else(|| format!("unknown system '{system_name}' (try: xsp list-systems)"))?;
    let framework = match flags
        .get("framework")
        .map(|s| s.as_str())
        .unwrap_or("tensorflow")
    {
        "tensorflow" | "tf" => FrameworkKind::TensorFlow,
        "mxnet" | "mx" => FrameworkKind::MXNet,
        other => return Err(format!("unknown framework '{other}'")),
    };
    let runs = positive(flags, "runs", 2)?;
    let mut cfg = XspConfig::new(system.clone(), framework).runs(runs);
    if flags.contains_key("library-level") {
        cfg = cfg.library_level(true);
    }
    if flags.contains_key("host-level") {
        cfg = cfg.host_level(true);
    }
    if let Some(raw) = flags.get("threads") {
        let p = Parallelism::parse(raw)
            .ok_or_else(|| format!("bad --threads '{raw}' (number, `auto`, or `serial`)"))?;
        cfg = cfg.parallelism(p);
    }
    if flags.contains_key("cached") {
        cfg = cfg.cached(true);
    }
    if let Some(dir) = cache_dir_of(flags) {
        // --cache-dir (or the XSP_CACHE_DIR default) implies --cached.
        cfg = cfg.cache_dir(dir);
    }
    Ok((cfg, system))
}

/// The count flag `--key`, `default` when absent; zero is refused.
fn positive(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key).map(|s| (s, s.parse::<usize>())) {
        None => Ok(default),
        Some((_, Ok(n))) if n > 0 => Ok(n),
        Some((s, Ok(_))) => Err(format!("bad --{key} '{s}' (must be at least 1)")),
        Some((s, Err(_))) => Err(format!("bad --{key} '{s}'")),
    }
}

/// The cache directory: `--cache-dir`, defaulting to the `XSP_CACHE_DIR`
/// environment variable.
fn cache_dir_of(flags: &HashMap<String, String>) -> Option<String> {
    flags
        .get("cache-dir")
        .cloned()
        .or_else(|| std::env::var("XSP_CACHE_DIR").ok())
        .filter(|d| !d.is_empty() && d != "true")
}

fn lookup_model(flags: &HashMap<String, String>) -> Result<zoo::ModelEntry, String> {
    let name = flags
        .get("model")
        .ok_or_else(|| "missing --model".to_owned())?;
    // Forgiving lookup (exact name → normalized exact → unique prefix)
    // with a structured rejection: the unknown-model error lists the
    // nearest zoo entries by edit distance, the same message the daemon's
    // Open frame returns.
    zoo::lookup(name).map_err(|e| e.to_string())
}

/// `xsp cache stats|warm|clear`: operate the on-disk `.xspc` profile
/// cache. `stats` inventories the directory (corrupt files are reported,
/// never fatal), `warm` profiles a model once so later cached runs — in
/// any process — rebuild from disk instead of re-profiling, `clear`
/// deletes the `.xspc` files and nothing else.
fn cache_cmd(verb: Option<&str>, flags: &HashMap<String, String>) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let verb =
            verb.ok_or_else(|| "missing cache verb (expected: stats, warm, or clear)".to_owned())?;
        let dir = cache_dir_of(flags).ok_or_else(|| {
            "missing cache directory: pass --cache-dir <DIR> or set XSP_CACHE_DIR".to_owned()
        })?;
        let dir_path = std::path::PathBuf::from(&dir);
        match verb {
            "stats" => {
                let scan = xsp_core::cache::scan_dir(&dir_path);
                let mut t = Table::new(
                    format!("Profile cache at {dir}"),
                    &["File", "Runs", "Spans", "KiB"],
                );
                let (mut spans, mut bytes) = (0usize, 0u64);
                for e in &scan.entries {
                    spans += e.spans;
                    bytes += e.bytes;
                    t.row(vec![
                        e.file.clone(),
                        e.runs.to_string(),
                        e.spans.to_string(),
                        format!("{:.1}", e.bytes as f64 / 1024.0),
                    ]);
                }
                println!("{t}");
                println!(
                    "{} profile(s), {spans} spans, {:.1} KiB on disk",
                    scan.entries.len(),
                    bytes as f64 / 1024.0
                );
                for (file, reason) in &scan.corrupt {
                    println!("corrupt (ignored by lookups): {file}: {reason}");
                }
                Ok(())
            }
            "warm" => {
                let (xsp, system) = build_xsp(flags)?;
                let model = lookup_model(flags)?;
                let batch = positive(flags, "batch", 1)?;
                let level = match flags.get("level") {
                    Some(raw) => ProfilingLevel::parse(raw).map_err(|e| e.to_string())?,
                    None => ProfilingLevel::ModelLayerGpu,
                };
                let graph = model.graph(batch);
                let fp = xsp_core::cache::GraphFingerprint::of(
                    xsp.config(),
                    &graph,
                    level,
                    xsp_core::profile::ProfileMode::Leveled,
                );
                eprintln!(
                    "warming {} @ batch {batch} on {} (level {}, fingerprint {fp})...",
                    model.name,
                    system.name,
                    level.label()
                );
                let profile = xsp.run_shared(ProfileRequest::new(&graph).level(level));
                let stats = xsp_core::cache::global().stats();
                println!(
                    "{} now holds {} run(s), {} span(s) [{stats}]",
                    dir_path.join(xsp_core::cache::xspc_file_name(fp)).display(),
                    profile.runs().count(),
                    profile.iter_spans().count(),
                );
                Ok(())
            }
            "clear" => {
                let removed = xsp_core::cache::clear_dir(&dir_path).map_err(|e| e.to_string())?;
                println!("removed {removed} .xspc file(s) from {dir}");
                Ok(())
            }
            other => Err(format!(
                "unknown cache verb '{other}' (expected: stats, warm, or clear)"
            )),
        }
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn profile(flags: &HashMap<String, String>) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let (xsp, system) = build_xsp(flags)?;
        let model = lookup_model(flags)?;
        let batch = positive(flags, "batch", 1)?;
        println!(
            "profiling {} @ batch {batch} on {} ({}, {} runs/level)...",
            model.name,
            system.name,
            xsp.config().framework.name(),
            xsp.config().runs
        );
        let p = xsp.run(ProfileRequest::new(&model.graph(batch)));

        let o = p.overhead_report();
        println!(
            "\nmodel latency {} ms | throughput {:.1} inputs/s | GPU latency {}%",
            fmt_ms(o.model_ms),
            p.throughput(),
            fmt_pct(p.gpu_latency_percent())
        );
        println!(
            "profiling overheads: layer +{} ms, GPU +{} ms, metrics {}x",
            fmt_ms(o.layer_overhead_ms),
            fmt_ms(o.gpu_overhead_ms),
            (p.metric_run_predict_ms() / o.model_ms).round()
        );

        let selected = flags
            .get("analyses")
            .map(|s| {
                s.split(',')
                    .map(|a| a.trim().to_lowercase())
                    .collect::<Vec<_>>()
            })
            .unwrap_or_else(|| vec!["a2".into(), "a10".into(), "a15".into()]);
        for a in &selected {
            render_analysis(a, &p, &system)?;
        }

        if let Some(path) = flags.get("chrome") {
            let run = &p.mlg_runs[0];
            let json = xsp_trace::export::to_chrome_trace_of(run.trace.iter_spans());
            std::fs::write(path, json).map_err(|e| e.to_string())?;
            println!("chrome trace written to {path}");
        }
        if let Some(path) = flags.get("flamegraph") {
            let folded = xsp_trace::export::to_folded_stacks(&p.mlg_runs[0].trace);
            std::fs::write(path, folded).map_err(|e| e.to_string())?;
            println!("folded stacks written to {path}");
        }
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `xsp export`: profile a model and stream the trace to a file or stdout.
///
/// All human-facing status goes to stderr so stdout stays a clean pipe for
/// the exported bytes (`xsp export --model bert-base | wc -c`).
fn export(flags: &HashMap<String, String>) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let format = match flags.get("format") {
            Some(raw) => ExportFormat::parse(raw).map_err(|e| e.to_string())?,
            None => ExportFormat::Spans,
        };
        let level = match flags.get("level") {
            Some(raw) => ProfilingLevel::parse(raw).map_err(|e| e.to_string())?,
            None => ProfilingLevel::ModelLayerGpu,
        };
        // `-o`/`--out` requires a value; a trailing flag parses as the
        // boolean "true" and would silently create a file named `true`.
        // Reject it before the (possibly long) profiling run starts.
        if flags.get("out").is_some_and(|p| p == "true") {
            return Err(
                "missing value for -o/--out (to write a file literally named \
                 'true', use ./true)"
                    .to_owned(),
            );
        }
        if let Some(from) = flags.get("from") {
            if flags.contains_key("sink") {
                return Err(
                    "--sink streams a live profiling run as it executes; --from \
                     converts a finished capture — use -o for the output path"
                        .to_owned(),
                );
            }
            return export_offline(flags, from, format);
        }
        if let Some(sink_path) = flags.get("sink") {
            return export_live_sink(flags, sink_path, level);
        }
        let (xsp, system) = build_xsp(flags)?;
        let model = lookup_model(flags)?;
        let batch = positive(flags, "batch", 1)?;
        eprintln!(
            "exporting {} @ batch {batch} on {} ({}, level {}, format {format})...",
            model.name,
            system.name,
            xsp.config().framework.name(),
            level.label()
        );
        let profile = xsp.run(ProfileRequest::new(&model.graph(batch)).level(level));
        let written = match flags.get("out") {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                let written = export_profile(&profile, format, std::io::BufWriter::new(file))
                    .map_err(|e| format!("export to {path} failed: {e}"))?;
                eprintln!("{format} export written to {path}");
                written
            }
            None => {
                let stdout = std::io::stdout();
                let written = export_profile(&profile, format, stdout.lock())
                    .map_err(|e| format!("export to stdout failed: {e}"))?;
                std::io::stdout().flush().map_err(|e| e.to_string())?;
                written
            }
        };
        let unit = if format == ExportFormat::Folded {
            "runs"
        } else {
            "spans"
        };
        eprintln!(
            "exported {written} {unit} across {} runs",
            profile.runs().count()
        );
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `xsp export --sink`: attach an [`ExportSink`] to the profiling run so
/// finished runs stream to the sink *during* the sweep (after the
/// deterministic submission-order merge), rather than being serialized
/// after the fact. The sink format is routed from the path extension; the
/// bytes are identical to the matching post-hoc `-o` export.
fn export_live_sink(
    flags: &HashMap<String, String>,
    path: &str,
    level: ProfilingLevel,
) -> Result<(), String> {
    if path == "true" {
        return Err(
            "missing value for --sink (path whose extension picks the format: \
             .jsonl, .xspb, .json, .folded)"
                .to_owned(),
        );
    }
    if flags.contains_key("out") {
        return Err(
            "--sink streams during profiling and replaces -o/--out; pass one output path"
                .to_owned(),
        );
    }
    if flags.contains_key("format") {
        return Err(
            "--sink routes the format from the path extension (.jsonl spans, \
             .xspb binary, .json chrome, .folded flamegraph); drop --format"
                .to_owned(),
        );
    }
    let (cfg, system) = build_config(flags)?;
    let model = lookup_model(flags)?;
    let batch = positive(flags, "batch", 1)?;
    let sink =
        ExportSink::create(std::path::Path::new(path)).map_err(|e| format!("sink {path}: {e}"))?;
    let xsp = Xsp::new(cfg.export_sink(sink.clone()));
    eprintln!(
        "exporting {} @ batch {batch} on {} ({}, level {}, streaming to {path})...",
        model.name,
        system.name,
        xsp.config().framework.name(),
        level.label()
    );
    let profile = xsp.run(ProfileRequest::new(&model.graph(batch)).level(level));
    sink.finish().map_err(|e| format!("sink {path}: {e}"))?;
    // Folded sinks finalize whole runs, so their write counter counts runs.
    let unit = if path.ends_with(".folded") {
        "folded runs"
    } else {
        "spans"
    };
    eprintln!(
        "streamed {} {unit} across {} runs to {path}",
        sink.spans_written(),
        profile.runs().count()
    );
    Ok(())
}

/// `xsp export --from`: converts a saved capture offline (§III-A: the
/// conversion "can be performed off-line by processing the output of the
/// profiler") — the spans are correlated once and the correlated trace is
/// streamed out; no model is re-profiled. The capture may be
/// span-JSON-lines or `.xspb` span binary; the input format is sniffed
/// from the magic bytes.
fn export_offline(
    flags: &HashMap<String, String>,
    from: &str,
    format: ExportFormat,
) -> Result<(), String> {
    // The capture already fixes the model, profiling depth and measurement
    // policy; any profile-shaping flag here would be silently ignored, so
    // reject them all up front.
    for shaping in [
        "model",
        "level",
        "batch",
        "runs",
        "threads",
        "system",
        "framework",
        "library-level",
    ] {
        if flags.contains_key(shaping) {
            return Err(format!(
                "--from converts a saved capture as-is, without re-profiling; \
                 --{shaping} has no effect — drop it (or drop --from to \
                 profile live)"
            ));
        }
    }
    if from == "true" {
        return Err("missing value for --from (path to a saved capture)".to_owned());
    }
    let trace = read_capture(from)?;
    eprintln!(
        "converting {from} ({} spans, {} runs) to {format}...",
        trace.len(),
        trace.trace_ids().len()
    );
    let correlated = xsp_trace::CorrelationEngine::new().correlate(trace);
    let written = match flags.get("out") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let written = export_correlated(&correlated, format, std::io::BufWriter::new(file))
                .map_err(|e| format!("export to {path} failed: {e}"))?;
            eprintln!("{format} export written to {path}");
            written
        }
        None => {
            let stdout = std::io::stdout();
            let written = export_correlated(&correlated, format, stdout.lock())
                .map_err(|e| format!("export to stdout failed: {e}"))?;
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            written
        }
    };
    let unit = if format == ExportFormat::Folded {
        "trace traversals"
    } else {
        "spans"
    };
    eprintln!("exported {written} {unit} (offline, no re-profiling)");
    Ok(())
}

/// Opens a saved capture and parses it as span-JSON-lines or `.xspb` span
/// binary: the first four bytes decide (the `XSPB` magic cannot begin a
/// JSON line).
fn read_capture(from: &str) -> Result<xsp_trace::Trace, String> {
    use std::io::Read;
    let mut file = std::fs::File::open(from).map_err(|e| format!("cannot open {from}: {e}"))?;
    let mut prefix = [0u8; 4];
    let mut have = 0;
    while have < prefix.len() {
        match file.read(&mut prefix[have..]) {
            Ok(0) => break,
            Ok(n) => have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("cannot read {from}: {e}")),
        }
    }
    let binary = xsp_trace::export::is_xspb_prefix(&prefix[..have]);
    // Re-attach the sniffed prefix so both parsers see the whole stream.
    let input = std::io::BufReader::new(std::io::Cursor::new(prefix[..have].to_vec()).chain(file));
    if binary {
        xsp_trace::export::read_span_binary(input).map_err(|e| format!("{from}: {e}"))
    } else {
        xsp_trace::export::read_span_json_lines(input).map_err(|e| format!("{from}: {e}"))
    }
}

/// `xsp serve`: run the resident daemon until SIGTERM (same entry point as
/// the standalone `xspd` binary).
fn serve(flags: &HashMap<String, String>) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let socket = match flags.get("socket") {
            Some(path) if path != "true" => path.clone(),
            _ => return Err("missing --socket <PATH> (the Unix socket to listen on)".to_owned()),
        };
        let mut config = xsp_daemon::DaemonConfig::new(socket);
        if let Some(raw) = flags.get("quota") {
            let quota: usize = raw.parse().map_err(|_| format!("bad --quota '{raw}'"))?;
            if quota == 0 {
                return Err("--quota must be positive".to_owned());
            }
            config.default_quota = quota;
        }
        if let Some(raw) = flags.get("idle-timeout") {
            let secs: u64 = raw
                .parse()
                .map_err(|_| format!("bad --idle-timeout '{raw}'"))?;
            config.idle_timeout = std::time::Duration::from_secs(secs);
        }
        xsp_daemon::run_until_signal(config).map_err(|e| e.to_string())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn render_analysis(
    which: &str,
    p: &xsp_core::LeveledProfile,
    system: &xsp_gpu::System,
) -> Result<(), String> {
    match which {
        "a2" => {
            let mut rows = analysis::a2_layer_info(p);
            rows.sort_by(|a, b| b.latency_ms.partial_cmp(&a.latency_ms).unwrap());
            let mut t = Table::new(
                "A2 — top-10 layers",
                &[
                    "Index",
                    "Name",
                    "Type",
                    "Shape",
                    "Latency (ms)",
                    "Alloc (MB)",
                ],
            );
            for r in rows.iter().take(10) {
                t.row(vec![
                    r.index.to_string(),
                    r.name.clone(),
                    r.type_name.clone(),
                    r.shape.clone(),
                    fmt_ms(r.latency_ms),
                    fmt_mb(r.alloc_mb),
                ]);
            }
            println!("{t}");
        }
        "a3" | "a4" => {
            let series = if which == "a3" {
                analysis::a3_layer_latency(p)
            } else {
                analysis::a4_layer_allocation(p)
            };
            let label = if which == "a3" {
                "latency (ms)"
            } else {
                "alloc (MB)"
            };
            println!(
                "{} — per layer ({} layers):",
                which.to_uppercase(),
                series.len()
            );
            for (i, v) in series.iter().step_by((series.len() / 20).max(1)) {
                println!("  {i:>5} {v:>12.3} {label}");
            }
        }
        "a5" | "a6" | "a7" => {
            let rows = match which {
                "a5" => analysis::a5_layer_type_distribution(p),
                "a6" => analysis::a6_latency_by_type(p),
                _ => analysis::a7_allocation_by_type(p),
            };
            let mut t = Table::new(
                format!("{} — by layer type", which.to_uppercase()),
                &["Type", "Count", "Total", "%"],
            );
            for r in rows.iter().take(10) {
                t.row(vec![
                    r.type_name.clone(),
                    r.count.to_string(),
                    format!("{:.2}", r.total),
                    fmt_pct(r.percent),
                ]);
            }
            println!("{t}");
        }
        "a8" | "a9" => {
            let mut rows = analysis::a8_kernel_info(p, system);
            rows.sort_by(|a, b| b.latency_ms.partial_cmp(&a.latency_ms).unwrap());
            let mut t = Table::new(
                "A8/A9 — top-10 kernels",
                &[
                    "Kernel",
                    "Layer",
                    "Latency (ms)",
                    "Gflops",
                    "AI",
                    "Tflop/s",
                    "Mem-bound",
                ],
            );
            for r in rows.iter().take(10) {
                t.row(vec![
                    r.name.chars().take(46).collect(),
                    r.layer_index.map(|i| i.to_string()).unwrap_or_default(),
                    fmt_ms(r.latency_ms),
                    format!("{:.2}", r.gflops),
                    format!("{:.2}", r.arithmetic_intensity),
                    format!("{:.2}", r.throughput_tflops),
                    fmt_bound(r.memory_bound),
                ]);
            }
            println!("{t}");
        }
        "a10" => {
            let rows = analysis::a10_kernel_info_by_name(p, system);
            let mut t = Table::new(
                "A10 — kernels by name",
                &[
                    "Kernel",
                    "Count",
                    "Latency (ms)",
                    "%",
                    "Occ (%)",
                    "Mem-bound",
                ],
            );
            for r in rows.iter().take(10) {
                t.row(vec![
                    r.name.chars().take(50).collect(),
                    r.count.to_string(),
                    fmt_ms(r.latency_ms),
                    fmt_pct(r.latency_percent),
                    fmt_pct(r.occupancy_pct),
                    fmt_bound(r.memory_bound),
                ]);
            }
            println!("{t}");
        }
        "a11" | "a12" | "a13" | "a14" => {
            let mut rows = analysis::a11_kernel_info_by_layer(p, system);
            rows.sort_by(|a, b| {
                b.kernel_latency_ms
                    .partial_cmp(&a.kernel_latency_ms)
                    .unwrap()
            });
            let mut t = Table::new(
                "A11-A14 — per-layer kernel aggregation (top 10)",
                &[
                    "Layer",
                    "Layer (ms)",
                    "Kernels (ms)",
                    "Gflops",
                    "AI",
                    "Mem-bound",
                ],
            );
            for r in rows.iter().take(10) {
                t.row(vec![
                    format!("{} {}", r.layer_index, r.layer_name),
                    fmt_ms(r.layer_latency_ms),
                    fmt_ms(r.kernel_latency_ms),
                    format!("{:.2}", r.gflops),
                    format!("{:.2}", r.arithmetic_intensity),
                    fmt_bound(r.memory_bound),
                ]);
            }
            println!("{t}");
        }
        "a15" => {
            let a = analysis::a15_model_aggregate(p, system);
            println!(
                "A15 — model aggregate @ batch {}: kernel {} ms, {:.1} Gflops, \
                 reads {} MB, writes {} MB, occ {}%, AI {:.2}, {}",
                a.batch,
                fmt_ms(a.kernel_latency_ms),
                a.gflops,
                fmt_mb(a.dram_read_mb),
                fmt_mb(a.dram_write_mb),
                fmt_pct(a.occupancy_pct),
                a.arithmetic_intensity,
                if a.memory_bound {
                    "memory-bound"
                } else {
                    "compute-bound"
                }
            );
        }
        "a1" => return Err("a1 is produced by `xsp sweep`".to_owned()),
        // Everything else goes through the shared `--ax` parser, so
        // `profile --analyses` and `analyze --ax` accept the same
        // spellings and reject with the same structured message.
        other => match AxAnalysis::parse(other) {
            Ok(ax) => render_ax(ax, p)?,
            Err(e) => return Err(format!("{e} (or one of a2..a15)")),
        },
    }
    Ok(())
}

/// Renders one extension analysis of a single-inference profile — the
/// shared back half of `profile --analyses axN` and `analyze --ax N`.
fn render_ax(which: AxAnalysis, p: &xsp_core::LeveledProfile) -> Result<(), String> {
    match which {
        AxAnalysis::Ax1 => {
            let rows = analysis::ax1_library_calls(p);
            if rows.is_empty() {
                return Err("ax1 needs --library-level".to_owned());
            }
            let mut t = Table::new(
                "AX1 — library API calls",
                &["API", "Calls", "Total (ms)", "%", "Kernels"],
            );
            for r in &rows {
                t.row(vec![
                    r.api.clone(),
                    r.count.to_string(),
                    fmt_ms(r.total_ms),
                    fmt_pct(r.percent),
                    r.kernels.to_string(),
                ]);
            }
            println!("{t}");
        }
        AxAnalysis::Ax2 => {
            let rows = analysis::ax2_host_dispatch(p);
            if rows.is_empty() {
                return Err("ax2 needs --host-level".to_owned());
            }
            let mut t = Table::new(
                "AX2 — host dispatch by op type",
                &["Op type", "Dispatches", "Total (ms)", "%"],
            );
            for r in rows.iter().take(10) {
                t.row(vec![
                    r.op_type.clone(),
                    r.count.to_string(),
                    fmt_ms(r.total_ms),
                    fmt_pct(r.percent),
                ]);
            }
            println!("{t}");
        }
        AxAnalysis::Ax3 => {
            let shares = analysis::ax3_family_shares(p);
            let mut t = Table::new(
                "AX3 — kernel latency by family",
                &["Family", "Count", "Latency (ms)", "%"],
            );
            for r in &shares {
                t.row(vec![
                    r.family.label().to_owned(),
                    r.count.to_string(),
                    fmt_ms(r.latency_ms),
                    fmt_pct(r.latency_percent),
                ]);
            }
            println!("{t}");
            println!(
                "compute regime: {:?} | GEMM share {}%",
                analysis::regime_of(&shares),
                fmt_pct(analysis::gemm_percent_of(&shares))
            );
        }
        AxAnalysis::Ax4 => {
            return Err("ax4 profiles a serving workload, not one inference; run \
                 `xsp analyze --ax 4 --model <NAME>`"
                .to_owned())
        }
    }
    Ok(())
}

/// `xsp analyze`: one extension analysis end to end. AX1–AX3 profile a
/// single inference (enabling whatever extra level the analysis needs);
/// AX4 runs the continuous-batching serving simulation.
fn analyze(flags: &HashMap<String, String>) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let raw = flags
            .get("ax")
            .ok_or_else(|| "missing --ax <1|2|3|4>".to_owned())?;
        let ax = AxAnalysis::parse(raw).map_err(|e| e.to_string())?;
        if ax == AxAnalysis::Ax4 {
            return analyze_serving(flags);
        }
        let (mut cfg, system) = build_config(flags)?;
        // The analysis knows what it needs; enable the level rather than
        // making the user pair --ax 1 with --library-level by hand.
        match ax {
            AxAnalysis::Ax1 => cfg = cfg.library_level(true),
            AxAnalysis::Ax2 => cfg = cfg.host_level(true),
            _ => {}
        }
        let xsp = Xsp::new(cfg);
        let model = lookup_model(flags)?;
        let batch = positive(flags, "batch", 1)?;
        eprintln!(
            "analyzing {} ({}) @ batch {batch} on {}...",
            model.name,
            ax.label(),
            system.name
        );
        let p = xsp.run(ProfileRequest::new(&model.graph(batch)));
        render_ax(ax, &p)
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses an inclusive `LO-HI` token range (a single number means a
/// degenerate `N-N` range).
fn parse_range(raw: &str, flag: &str) -> Result<(usize, usize), String> {
    let bad = || format!("bad --{flag} '{raw}' (a token count or an inclusive LO-HI range)");
    let (lo, hi) = match raw.split_once('-') {
        Some((lo, hi)) => (
            lo.trim().parse().map_err(|_| bad())?,
            hi.trim().parse().map_err(|_| bad())?,
        ),
        None => {
            let n: usize = raw.trim().parse().map_err(|_| bad())?;
            (n, n)
        }
    };
    if lo == 0 || hi < lo {
        return Err(bad());
    }
    Ok((lo, hi))
}

/// `xsp analyze --ax 4`: serve the model's decode-step variant through the
/// continuous-batching simulator and render the AX4 tables. Status goes to
/// stderr; stdout carries only the deterministic tables, so the output is
/// byte-identical for every --threads setting.
fn analyze_serving(flags: &HashMap<String, String>) -> Result<(), String> {
    let (cfg, system) = build_config(flags)?;
    let xsp = Xsp::new(cfg);
    let entry = lookup_model(flags)?;
    let model = ServingModel::from_zoo_id(entry.id).ok_or_else(|| {
        format!(
            "{} has no decode-step variant; ax4 serves the transformer tier: \
             BERT-Base_SQuAD_384 (56), BERT-Large_SQuAD_384 (57), \
             GPT2_Small_256 (58)",
            entry.name
        )
    })?;
    let max_batch = positive(flags, "max-batch", 8)?;
    let requests = positive(flags, "requests", 24)?;
    let cache_bucket = positive(flags, "cache-bucket", 64)?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed '{s}'")))
        .transpose()?
        .unwrap_or(42);
    let rate = match flags.get("rate").map(|s| (s, s.parse::<f64>())) {
        None => 40.0,
        Some((_, Ok(r))) if r > 0.0 && r.is_finite() => r,
        Some((s, Ok(_))) => return Err(format!("bad --rate '{s}' (must be positive and finite)")),
        Some((s, Err(_))) => return Err(format!("bad --rate '{s}'")),
    };
    let prompt = parse_range(
        flags.get("prompt").map(|s| s.as_str()).unwrap_or("16-64"),
        "prompt",
    )?;
    let decode = parse_range(
        flags.get("decode").map(|s| s.as_str()).unwrap_or("8-32"),
        "decode",
    )?;
    let level = match flags.get("level") {
        Some(raw) => ProfilingLevel::parse(raw).map_err(|e| e.to_string())?,
        None => ProfilingLevel::ModelLayerGpu,
    };
    let attention = if flags.contains_key("fused") {
        DecodeAttention::Fused
    } else {
        DecodeAttention::Materialized
    };
    let scfg = ServingConfig::default()
        .max_batch(max_batch)
        .cache_bucket(cache_bucket)
        .level(level)
        .attention(attention);
    let trace = ArrivalTrace::synthetic(seed, requests, rate, prompt, decode);
    let sink = match flags.get("trace") {
        Some(p) if p != "true" => Some((
            p.clone(),
            ExportSink::create(std::path::Path::new(p)).map_err(|e| format!("trace {p}: {e}"))?,
        )),
        Some(_) => return Err("missing value for --trace (output JSONL path)".to_owned()),
        None => None,
    };
    eprintln!(
        "serving {} on {}: {requests} requests @ {rate:.0} req/s, max batch \
         {max_batch}, {} attention, level {}...",
        model.label(),
        system.name,
        match attention {
            DecodeAttention::Materialized => "materialized",
            DecodeAttention::Fused => "fused",
        },
        level.label()
    );
    let report = simulate_streaming(&xsp, model, &trace, &scfg, sink.as_ref().map(|(_, s)| s));
    if let Some((path, sink)) = &sink {
        sink.finish().map_err(|e| format!("trace {path}: {e}"))?;
        eprintln!("streamed {} spans to {path}", sink.spans_written());
    }
    render_serving_report(&report, &system);
    Ok(())
}

/// Renders the AX4 tables of a finished serving simulation to stdout.
fn render_serving_report(report: &ServingReport, system: &xsp_gpu::System) {
    let rows = analysis::ax4_occupancy_throughput(report);
    let mut t = Table::new(
        "AX4a — tokens/sec vs decode occupancy",
        &[
            "Batch",
            "Occupancy (%)",
            "Steps",
            "Tokens",
            "Latency (ms)",
            "Tokens/s",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.batch.to_string(),
            fmt_pct(r.occupancy_percent),
            r.steps.to_string(),
            r.tokens.to_string(),
            fmt_ms(r.latency_ms),
            format!("{:.1}", r.tokens_per_s),
        ]);
    }
    println!("{t}");

    let split = analysis::ax4_latency_split(report);
    let mut t = Table::new(
        "AX4b — prefill/decode latency split",
        &["Phase", "Total (ms)", "%"],
    );
    t.row(vec![
        "prefill".to_owned(),
        fmt_ms(split.prefill_ms),
        fmt_pct(split.prefill_percent),
    ]);
    t.row(vec![
        "decode".to_owned(),
        fmt_ms(split.decode_ms),
        fmt_pct(split.decode_percent),
    ]);
    t.row(vec![
        "idle".to_owned(),
        fmt_ms(split.idle_ms),
        fmt_pct(split.idle_percent),
    ]);
    println!("{t}");
    println!(
        "queue wait {} ms | TTFT mean {} / max {} ms | TPOT {} ms",
        fmt_ms(split.mean_queue_wait_ms),
        fmt_ms(split.mean_ttft_ms),
        fmt_ms(split.max_ttft_ms),
        fmt_ms(split.mean_tpot_ms)
    );

    if let Some(p) = &report.representative_decode {
        let mut points = analysis::ax4_cache_roofline(p, system);
        points.sort_by(|a, b| b.latency_ms.partial_cmp(&a.latency_ms).unwrap());
        if !points.is_empty() {
            let mut t = Table::new(
                "AX4c — KV-cache roofline (top 10 decode kernels)",
                &["Kernel", "AI", "Tflop/s", "Latency (ms)", "Mem-bound"],
            );
            for r in points.iter().take(10) {
                t.row(vec![
                    r.name.chars().take(46).collect(),
                    format!("{:.2}", r.arithmetic_intensity),
                    format!("{:.2}", r.throughput_tflops),
                    fmt_ms(r.latency_ms),
                    fmt_bound(r.memory_bound),
                ]);
            }
            println!("{t}");
            println!(
                "system ridge point: {:.2} flops/byte",
                system.ideal_arithmetic_intensity()
            );
        }
    }

    println!(
        "serving summary: {:.1} tokens/s | mean decode occupancy {}% | \
         makespan {} ms | {} requests, {} steps, {} tokens",
        report.tokens_per_s(),
        fmt_pct(report.mean_occupancy_percent()),
        fmt_ms(report.makespan_ms),
        report.requests.len(),
        report.steps.len(),
        report.tokens_emitted
    );
}

fn sweep(flags: &HashMap<String, String>) -> ExitCode {
    let result = (|| -> Result<(), String> {
        let (xsp, system) = build_xsp(flags)?;
        let model = lookup_model(flags)?;
        println!("sweeping {} on {}...", model.name, system.name);
        let sweep = xsp.batch_sweep(|b| model.graph(b), &[1, 2, 4, 8, 16, 32, 64, 128, 256]);
        let table = analysis::a1_model_info(&sweep);
        let mut t = Table::new(
            "A1 — model information table",
            &["Batch", "Latency (ms)", "Throughput (inputs/s)"],
        );
        for r in &table.rows {
            t.row(vec![
                r.batch.to_string(),
                fmt_ms(r.latency_ms),
                format!("{:.1}", r.throughput),
            ]);
        }
        println!("{t}");
        println!(
            "optimal batch: {} | max throughput: {:.1} inputs/s | online latency: {} ms",
            table.optimal_batch,
            table.max_throughput,
            fmt_ms(table.online_latency_ms)
        );
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
