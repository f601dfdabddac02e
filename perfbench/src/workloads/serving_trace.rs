//! `serving_trace`: one op is `xsp analyze --ax 4 --model gpt2 --cache-dir D
//! --trace T`, run in process with the trace streamed into a sink that
//! digests it.

use super::profile_cold;
use crate::rec::Rec;
use crate::run_loop::{digest, Digest, Rng, Workload};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use xsp_core::analysis::{ax4_cache_roofline, ax4_latency_split, ax4_occupancy_throughput};
use xsp_core::cache::{self, GraphFingerprint};
use xsp_core::profile::{ProfileMode, Xsp};
use xsp_core::scheduler::Parallelism;
use xsp_core::serving::{
    simulate, simulate_streaming, ArrivalTrace, ServingConfig, ServingModel, ServingReport,
    StepKind,
};
use xsp_core::ExportSink;
use xsp_models::transformer::{self, DecodeAttention};

/// Requests per simulation and their shapes: small enough that a run holds
/// well over a hundred simulations.
const REQUESTS: usize = 4;
const PROMPT: (usize, usize) = (16, 40);
const DECODE: (usize, usize) = (2, 6);
/// The (arrival rate req/s, max batch) grid the rotation cycles through.
const GRID: [(f64, usize); 6] = [
    (25.0, 2),
    (25.0, 4),
    (50.0, 2),
    (50.0, 4),
    (100.0, 2),
    (100.0, 4),
];
/// Arrival traces per grid point: the seed draws them, and the more there
/// are, the closer every seed's mix of simulations comes to the same.
const TRACES_PER_POINT: usize = 8;

/// Where the streamed trace goes. Like the CLI's `--trace` file, it keeps
/// nothing in the process: it digests and counts the bytes as they come.
#[derive(Clone, Default)]
struct Digested(Arc<Mutex<Digest>>);

impl Digested {
    fn get(&self) -> Digest {
        *self.0.lock().expect("digest lock")
    }
}

impl Write for Digested {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("digest lock").update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Sim {
    trace: ArrivalTrace,
    cfg: ServingConfig,
}

/// What one simulation produced, digested for the warm-equals-cold check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimDigest {
    report: u64,
    spans: usize,
    bytes: u64,
}

pub struct ServingTrace {
    dir: PathBuf,
    xsp: Xsp,
    sims: Vec<Sim>,
    last: Option<(ServingReport, ExportSink, Digested)>,
    kept: Vec<(usize, SimDigest)>,
}

/// `xsp analyze --ax 4`'s profiler: CLI defaults, two engine workers, the
/// on-disk cache tier at `dir` (none for the cache-off reference).
fn xsp(dir: Option<&PathBuf>) -> Xsp {
    let cfg = profile_cold::config(Parallelism::Fixed(profile_cold::WORKERS));
    Xsp::new(match dir {
        Some(d) => cfg.cache_dir(d.clone()),
        None => cfg,
    })
}

fn report_digest(r: &ServingReport) -> u64 {
    let text = format!(
        "{}|{}|{:?}|{:?}|{:?}|{}",
        r.model, r.max_batch, r.steps, r.requests, r.makespan_ms, r.tokens_emitted
    );
    digest(text.as_bytes())
}

/// The step graphs a report ran, one per distinct shape.
fn step_shapes(report: &ServingReport) -> BTreeSet<(usize, usize, usize)> {
    report
        .steps
        .iter()
        .map(|s| match &s.kind {
            StepKind::Prefill { prompt_tokens, .. } => (0, *prompt_tokens, 0),
            StepKind::Decode {
                batch,
                attend_tokens,
                ..
            } => (1, *batch, *attend_tokens),
        })
        .collect()
}

impl ServingTrace {
    /// Generates the arrival traces and warms a fresh cache directory with
    /// every step shape they use.
    pub fn setup(seed: u64, work_dir: &std::path::Path, n: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut sims = Vec::new();
        for &(rate, max_batch) in &GRID {
            for _ in 0..TRACES_PER_POINT {
                sims.push(Sim {
                    trace: ArrivalTrace::synthetic(rng.next_u64(), REQUESTS, rate, PROMPT, DECODE),
                    cfg: ServingConfig::default().max_batch(max_batch),
                });
            }
        }
        rng.shuffle(&mut sims);
        let dir = work_dir.join(format!("xspc-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        let warm =
            Xsp::new(profile_cold::config(profile_cold::SETUP_PARALLELISM).cache_dir(dir.clone()));
        cache::global().clear();
        for sim in &sims {
            black_box(simulate(
                &warm,
                ServingModel::Gpt2Small,
                &sim.trace,
                &sim.cfg,
            ));
        }
        cache::global().clear();
        Self {
            xsp: xsp(Some(&dir)),
            dir,
            sims,
            last: None,
            kept: Vec::new(),
        }
    }
}

impl Drop for ServingTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for ServingTrace {
    fn cycle_len(&self) -> usize {
        self.sims.len()
    }

    fn op(&mut self, i: usize, rec: &Rec) -> Result<(), String> {
        let sim = &self.sims[i % self.sims.len()];
        let before = cache::global().stats();
        let out = Digested::default();
        let sink = ExportSink::new(io::BufWriter::new(out.clone()));
        let report = rec.span("serving.simulate", || {
            simulate_streaming(
                &self.xsp,
                ServingModel::Gpt2Small,
                &sim.trace,
                &sim.cfg,
                Some(&sink),
            )
        });
        sink.finish().map_err(|e| format!("trace sink: {e}"))?;
        black_box(rec.span("analysis", || {
            let system = &self.xsp.config().system;
            (
                ax4_occupancy_throughput(&report),
                ax4_latency_split(&report),
                report
                    .representative_decode
                    .as_ref()
                    .map(|p| ax4_cache_roofline(p, system)),
            )
        }));
        let after = cache::global().stats();
        rec.count("cache.hits", after.hits - before.hits);
        rec.count("cache.misses", after.misses - before.misses);
        rec.count("cache.disk_hits", after.disk_hits - before.disk_hits);
        rec.count(
            "cache.cold_profiles",
            (after.misses - before.misses) - (after.disk_hits - before.disk_hits),
        );
        self.last = Some((report, sink, out));
        Ok(())
    }

    fn keep(&mut self, i: usize, rec: &Rec) {
        let (report, sink, out) = self.last.take().expect("op kept its output");
        let out = out.get();
        let d = SimDigest {
            report: report_digest(&report),
            spans: sink.spans_written(),
            bytes: out.finish(),
        };
        rec.count("serving.steps", report.steps.len() as u64);
        rec.count("serving.spans_streamed", d.spans as u64);
        rec.count("trace.spans_per_op", d.spans as u64);
        rec.count("export.bytes_out", out.bytes_in());
        self.kept.push((i % self.sims.len(), d));
        // The next op starts like a fresh CLI process: nothing in memory.
        cache::global().clear();
    }

    fn probe(&mut self, i: usize, rec: &Rec) {
        let sim = &self.sims[i];
        let cfg = self.xsp.config();
        // Rebuild the op's report (memory tier warm from the disk tier),
        // then time the scheduler alone with every shape resident.
        let report = simulate(&self.xsp, ServingModel::Gpt2Small, &sim.trace, &sim.cfg);
        black_box(rec.span("serving.schedule", || {
            simulate(&self.xsp, ServingModel::Gpt2Small, &sim.trace, &sim.cfg)
        }));
        for (kind, a, b) in step_shapes(&report) {
            let graph = rec.span("models.graph", || match kind {
                0 => transformer::gpt2_small(1, a),
                _ => transformer::gpt2_decode_step(a, b, DecodeAttention::Materialized),
            });
            let fp = rec.span("cache.fingerprint", || {
                GraphFingerprint::of(cfg, &graph, sim.cfg.level, ProfileMode::Leveled)
            });
            let loaded = rec.span("cache.disk_load", || cache::load_from_dir(&self.dir, fp));
            assert!(loaded.is_some(), "step shape missing from the warmed cache");
        }
        cache::global().clear();
    }

    fn describe(&self) -> Vec<String> {
        let sims: Vec<String> = self
            .sims
            .iter()
            .map(|s| {
                let last = s.trace.requests.last().map_or(0.0, |r| r.arrival_ms);
                format!("b{}@{:.0}ms", s.cfg.max_batch, last)
            })
            .collect();
        vec![format!(
            "simulations ({REQUESTS} requests, max batch @ last arrival): {}",
            sims.join(" ")
        )]
    }

    fn verify(&mut self) -> Vec<String> {
        // Warm equals cold: the report and the streamed spans must equal a
        // cache-off simulation of the same arrival trace.
        let cold = xsp(None);
        let mut reference: Vec<Option<SimDigest>> = vec![None; self.sims.len()];
        let mut failures = Vec::new();
        for &(at, got) in &self.kept {
            let want = *reference[at].get_or_insert_with(|| {
                let sim = &self.sims[at];
                let out = Digested::default();
                let sink = ExportSink::new(io::BufWriter::new(out.clone()));
                let report = simulate_streaming(
                    &cold,
                    ServingModel::Gpt2Small,
                    &sim.trace,
                    &sim.cfg,
                    Some(&sink),
                );
                sink.finish().expect("digesting sink");
                SimDigest {
                    report: report_digest(&report),
                    spans: sink.spans_written(),
                    bytes: out.get().finish(),
                }
            });
            if got != want {
                failures.push(format!(
                    "simulation {at}: warm run differs from the cache-off run ({got:?} vs {want:?})"
                ));
            }
        }
        failures
    }
}

/// `serving.stream_ms`: the streaming simulation minus what scheduling
/// (with every shape resident) and the `.xspc` reloads account for.
pub fn derived(out: &crate::run_loop::Outcome) -> std::collections::HashMap<&'static str, f64> {
    let idx = crate::report::SpanIndex::new(out);
    let stream = idx.call_ms("serving.simulate")
        - idx.call_ms("serving.schedule")
        - idx.call_ms("cache.disk_load");
    std::collections::HashMap::from([("serving.stream_ms", stream)])
}
