//! The inference-serving tier: a simulated continuous-batching scheduler
//! over KV-cache decode steps.
//!
//! The paper's pipeline profiles one inference at a time; a serving system
//! instead interleaves many requests through a shared decode loop. This
//! module reproduces that regime deterministically: requests arrive on a
//! seeded [`ArrivalTrace`], a continuous-batching scheduler admits them
//! into a bounded batch, and every scheduler step — a batch-1 prefill of a
//! newly admitted prompt, or one autoregressive decode step of the whole
//! active batch — is costed by profiling the corresponding
//! [`xsp_models::transformer`] graph through the normal leveled pipeline
//! ([`crate::profile::ProfileRequest`]). Step profiles are memoized by
//! `(kind, batch, bucketed attend length)`, so a thousand-step simulation
//! profiles only a handful of distinct graphs.
//!
//! Determinism contract: the scheduler itself is strictly sequential over a
//! virtual clock; all parallelism lives inside the profile calls, which are
//! already byte-deterministic for any worker count. A simulation therefore
//! produces identical [`ServingReport`]s — and identical streamed span
//! traces — under `XSP_THREADS=1` and `XSP_THREADS=4`.
//!
//! Span streaming: with a sink attached ([`simulate_streaming`]), each step
//! writes the correlated run of its (memoized) profile with every span
//! moved to a fresh per-step trace id and the step's virtual start time,
//! so the exported trace reads as one continuous serving timeline rather
//! than a pile of overlapping single-inference captures. The run is
//! correlated once, when it is profiled; re-correlating it would change
//! nothing, so each step only re-stamps spans as the sink writes them.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::export::ExportSink;
use crate::profile::{LeveledProfile, ProfileRequest, ProfilingLevel, Xsp};
use xsp_models::transformer::{self, DecodeAttention};
use xsp_trace::TraceId;

/// One inference request in the arrival trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingRequest {
    /// Request id (unique within a trace, admission-ordered).
    pub id: u32,
    /// Arrival time on the virtual clock, ms.
    pub arrival_ms: f64,
    /// Prompt length in tokens (the prefill cost).
    pub prompt_tokens: usize,
    /// Tokens to generate, including the one the prefill emits.
    pub decode_tokens: usize,
}

/// A deterministic arrival trace: the serving workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// Requests sorted by arrival time.
    pub requests: Vec<ServingRequest>,
}

/// splitmix64 — the same tiny deterministic generator the simulated GPU
/// uses for jitter; good enough statistical quality for workload synthesis
/// and trivially reproducible from the seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform f64 in `[0, 1)` from one generator draw.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform usize in `[lo, hi]` (inclusive) from one generator draw.
fn range_usize(state: &mut u64, lo: usize, hi: usize) -> usize {
    assert!(lo <= hi, "empty range");
    lo + (splitmix64(state) % (hi - lo + 1) as u64) as usize
}

impl ArrivalTrace {
    /// Synthesizes a Poisson-like arrival trace: `n` requests with
    /// exponential interarrival gaps at `rate_per_s` requests/second,
    /// prompt and decode lengths drawn uniformly from the given inclusive
    /// ranges. Fully determined by `seed` — the replay property the
    /// determinism tests lean on.
    pub fn synthetic(
        seed: u64,
        n: usize,
        rate_per_s: f64,
        prompt_tokens: (usize, usize),
        decode_tokens: (usize, usize),
    ) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        assert!(
            prompt_tokens.0 >= 1 && decode_tokens.0 >= 1,
            "degenerate request shape"
        );
        let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
        let mut clock_ms = 0.0f64;
        let mut requests = Vec::with_capacity(n);
        for id in 0..n {
            let u = unit_f64(&mut state);
            clock_ms += -(1.0 - u).ln() / rate_per_s * 1000.0;
            requests.push(ServingRequest {
                id: id as u32,
                arrival_ms: clock_ms,
                prompt_tokens: range_usize(&mut state, prompt_tokens.0, prompt_tokens.1),
                decode_tokens: range_usize(&mut state, decode_tokens.0, decode_tokens.1),
            });
        }
        Self { requests }
    }
}

/// The transformer a serving simulation decodes with — the zoo's
/// transformer tier, keyed the same way the CLI's `--model` flag and the
/// zoo registry key them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingModel {
    /// GPT-2 small with the vocab-wide LM head (zoo id 58).
    Gpt2Small,
    /// BERT-Base incremental scoring (zoo id 56).
    BertBase,
    /// BERT-Large incremental scoring (zoo id 57).
    BertLarge,
}

impl ServingModel {
    /// Display label (matches the zoo entry name).
    pub fn label(self) -> &'static str {
        match self {
            ServingModel::Gpt2Small => "GPT2_Small_256",
            ServingModel::BertBase => "BERT-Base_SQuAD_384",
            ServingModel::BertLarge => "BERT-Large_SQuAD_384",
        }
    }

    /// Maps a zoo model id to the serving tier, when the model has a
    /// decode-step variant.
    pub fn from_zoo_id(id: u32) -> Option<Self> {
        match id {
            56 => Some(ServingModel::BertBase),
            57 => Some(ServingModel::BertLarge),
            58 => Some(ServingModel::Gpt2Small),
            _ => None,
        }
    }

    /// The batch-1 prefill graph for a `prompt` token prompt.
    fn prefill_graph(self, prompt: usize) -> xsp_framework::LayerGraph {
        match self {
            ServingModel::Gpt2Small => transformer::gpt2_small(1, prompt),
            ServingModel::BertBase => transformer::bert_base(1, prompt),
            ServingModel::BertLarge => transformer::bert_large(1, prompt),
        }
    }

    /// One decode step of the whole batch against `cache_len` cached
    /// tokens.
    fn decode_graph(
        self,
        batch: usize,
        cache_len: usize,
        path: DecodeAttention,
    ) -> xsp_framework::LayerGraph {
        match self {
            ServingModel::Gpt2Small => transformer::gpt2_decode_step(batch, cache_len, path),
            ServingModel::BertBase => transformer::bert_base_decode_step(batch, cache_len, path),
            ServingModel::BertLarge => transformer::bert_large_decode_step(batch, cache_len, path),
        }
    }
}

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Decode batch capacity (active request slots).
    pub max_batch: usize,
    /// Attend-length bucketing granularity: decode steps round the longest
    /// active cache up to a multiple of this, so step profiles memoize
    /// across nearby cache lengths.
    pub cache_bucket: usize,
    /// Profiling level each step graph is evaluated at.
    pub level: ProfilingLevel,
    /// Which decode attention lowering the steps use.
    pub attention: DecodeAttention,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            cache_bucket: 64,
            level: ProfilingLevel::ModelLayerGpu,
            attention: DecodeAttention::Materialized,
        }
    }
}

impl ServingConfig {
    /// Sets the decode batch capacity.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the attend-length bucket granularity.
    pub fn cache_bucket(mut self, bucket: usize) -> Self {
        self.cache_bucket = bucket;
        self
    }

    /// Sets the per-step profiling level.
    pub fn level(mut self, level: ProfilingLevel) -> Self {
        self.level = level;
        self
    }

    /// Sets the decode attention lowering.
    pub fn attention(mut self, attention: DecodeAttention) -> Self {
        self.attention = attention;
        self
    }
}

/// What one scheduler step did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepKind {
    /// Batch-1 prefill of a newly admitted request (emits its first token).
    Prefill {
        /// The admitted request.
        request: u32,
        /// Its prompt length.
        prompt_tokens: usize,
    },
    /// One autoregressive decode step of the active batch.
    Decode {
        /// Active batch size during the step.
        batch: usize,
        /// Bucketed attend length the step's kernels saw.
        attend_tokens: usize,
        /// Requests that emitted their last token this step.
        completed: Vec<u32>,
    },
}

/// One scheduler step on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Step index (also the streamed trace id, offset by one).
    pub index: usize,
    /// Step start on the virtual clock, ms.
    pub start_ms: f64,
    /// Step latency — the profiled model latency of the step graph, ms.
    pub latency_ms: f64,
    /// What the step did.
    pub kind: StepKind,
}

/// Per-request lifecycle timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request id.
    pub id: u32,
    /// Arrival on the virtual clock, ms.
    pub arrival_ms: f64,
    /// When the scheduler admitted it (prefill start), ms.
    pub admitted_ms: f64,
    /// When its first token was emitted (prefill end), ms.
    pub first_token_ms: f64,
    /// When its last token was emitted, ms.
    pub completed_ms: f64,
    /// Prompt length, tokens.
    pub prompt_tokens: usize,
    /// Generated length, tokens.
    pub decode_tokens: usize,
}

impl RequestRecord {
    /// Queue wait: arrival → admission, ms.
    pub fn queue_wait_ms(&self) -> f64 {
        self.admitted_ms - self.arrival_ms
    }

    /// Time to first token: arrival → first token, ms.
    pub fn ttft_ms(&self) -> f64 {
        self.first_token_ms - self.arrival_ms
    }

    /// Time per output token after the first, ms (0 for single-token
    /// generations).
    pub fn tpot_ms(&self) -> f64 {
        if self.decode_tokens <= 1 {
            0.0
        } else {
            (self.completed_ms - self.first_token_ms) / (self.decode_tokens - 1) as f64
        }
    }
}

/// Everything a serving simulation produced.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// The model that was served.
    pub model: &'static str,
    /// Decode batch capacity the scheduler ran with.
    pub max_batch: usize,
    /// Every scheduler step, in order.
    pub steps: Vec<StepRecord>,
    /// Every request's lifecycle, in id order.
    pub requests: Vec<RequestRecord>,
    /// End of the last step on the virtual clock, ms.
    pub makespan_ms: f64,
    /// Total tokens emitted (prefill first tokens + decode tokens).
    pub tokens_emitted: usize,
    /// The profile of the most latency-weighted decode step shape — the
    /// representative input for [`crate::analysis::ax4_cache_roofline`].
    /// Shared with the scheduler's step memo (an `Arc` bump, not a
    /// span-vector deep copy). `None` when the trace never reached a
    /// decode step.
    pub representative_decode: Option<Arc<LeveledProfile>>,
}

impl ServingReport {
    /// Aggregate generation throughput over the makespan, tokens/second.
    pub fn tokens_per_s(&self) -> f64 {
        if self.makespan_ms > 0.0 {
            self.tokens_emitted as f64 / (self.makespan_ms / 1000.0)
        } else {
            0.0
        }
    }

    /// Latency-weighted mean decode-batch occupancy, percent of
    /// `max_batch`.
    pub fn mean_occupancy_percent(&self) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for s in &self.steps {
            if let StepKind::Decode { batch, .. } = &s.kind {
                weighted += *batch as f64 * s.latency_ms;
                total += s.latency_ms;
            }
        }
        if total > 0.0 {
            100.0 * weighted / total / self.max_batch as f64
        } else {
            0.0
        }
    }

    /// Total time spent in prefill steps, ms.
    pub fn prefill_ms(&self) -> f64 {
        self.steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Prefill { .. }))
            .map(|s| s.latency_ms)
            .sum()
    }

    /// Total time spent in decode steps, ms.
    pub fn decode_ms(&self) -> f64 {
        self.steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Decode { .. }))
            .map(|s| s.latency_ms)
            .sum()
    }

    /// Idle time: makespan not covered by any step (the GPU waiting for
    /// arrivals), ms.
    pub fn idle_ms(&self) -> f64 {
        (self.makespan_ms - self.prefill_ms() - self.decode_ms()).max(0.0)
    }

    /// Mean time to first token across requests, ms.
    pub fn mean_ttft_ms(&self) -> f64 {
        mean(self.requests.iter().map(RequestRecord::ttft_ms))
    }

    /// Mean time per output token across requests, ms.
    pub fn mean_tpot_ms(&self) -> f64 {
        mean(self.requests.iter().map(RequestRecord::tpot_ms))
    }

    /// Mean queue wait across requests, ms.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        mean(self.requests.iter().map(RequestRecord::queue_wait_ms))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

/// Memoization key of one step graph shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StepShape {
    Prefill { prompt: usize },
    Decode { batch: usize, attend: usize },
}

/// An admitted, not-yet-finished request.
struct Active {
    id: u32,
    cache_len: usize,
    remaining: usize,
}

/// Runs the continuous-batching simulation without span streaming.
pub fn simulate(
    xsp: &Xsp,
    model: ServingModel,
    trace: &ArrivalTrace,
    cfg: &ServingConfig,
) -> ServingReport {
    simulate_streaming(xsp, model, trace, cfg, None)
}

/// Runs the continuous-batching simulation, optionally streaming each
/// step's re-stamped correlated run into `sink` (one run per step).
pub fn simulate_streaming(
    xsp: &Xsp,
    model: ServingModel,
    trace: &ArrivalTrace,
    cfg: &ServingConfig,
    sink: Option<&ExportSink>,
) -> ServingReport {
    assert!(cfg.max_batch >= 1, "serving needs at least one batch slot");
    assert!(cfg.cache_bucket >= 1, "cache bucket must be positive");
    for r in &trace.requests {
        assert!(
            r.prompt_tokens >= 1 && r.decode_tokens >= 1,
            "request {} has a degenerate shape",
            r.id
        );
    }
    let mut pending: Vec<&ServingRequest> = trace.requests.iter().collect();
    pending.sort_by(|a, b| {
        a.arrival_ms
            .partial_cmp(&b.arrival_ms)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    let mut pending = pending.into_iter().peekable();

    let mut memo: BTreeMap<StepShape, Arc<LeveledProfile>> = BTreeMap::new();
    let mut decode_weight: BTreeMap<StepShape, f64> = BTreeMap::new();

    let mut active: Vec<Active> = Vec::new();
    let mut clock_ms = 0.0f64;
    let mut steps: Vec<StepRecord> = Vec::new();
    let mut requests: Vec<RequestRecord> = Vec::new();
    let mut tokens = 0usize;

    loop {
        // Admission first: a free slot and an arrived request always win
        // over another decode step (prefill-priority continuous batching).
        let admit = active.len() < cfg.max_batch
            && pending.peek().is_some_and(|r| r.arrival_ms <= clock_ms);
        let (shape, kind) = if admit {
            let r = pending.next().unwrap();
            (
                StepShape::Prefill {
                    prompt: r.prompt_tokens,
                },
                StepKind::Prefill {
                    request: r.id,
                    prompt_tokens: r.prompt_tokens,
                },
            )
        } else if !active.is_empty() {
            let longest = active.iter().map(|a| a.cache_len + 1).max().unwrap();
            let attend = longest.div_ceil(cfg.cache_bucket) * cfg.cache_bucket;
            (
                StepShape::Decode {
                    batch: active.len(),
                    attend,
                },
                StepKind::Decode {
                    batch: active.len(),
                    attend_tokens: attend,
                    completed: Vec::new(),
                },
            )
        } else if let Some(r) = pending.peek() {
            // Nothing runnable: jump the clock to the next arrival.
            clock_ms = r.arrival_ms;
            continue;
        } else {
            break;
        };

        let profile = memo.entry(shape).or_insert_with(|| {
            let graph = match shape {
                StepShape::Prefill { prompt } => model.prefill_graph(prompt),
                StepShape::Decode { batch, attend } => {
                    model.decode_graph(batch, attend, cfg.attention)
                }
            };
            // `run_shared` keeps the memoized profile behind an `Arc` —
            // and, when the config opts into the process-wide cache, lets
            // repeat simulations skip profiling the shape entirely.
            xsp.run_shared(ProfileRequest::new(&graph).level(cfg.level))
        });
        let latency_ms = profile.model_latency_ms();
        let start_ms = clock_ms;
        let end_ms = clock_ms + latency_ms;
        let index = steps.len();

        // One run per step: the memoized profile's first run at the
        // simulation's level, moved to the step's trace id and start time.
        // It was correlated when it was profiled, so it is written as is.
        let run = match cfg.level {
            ProfilingLevel::Model => profile.m_runs.first(),
            ProfilingLevel::ModelLayer => profile.ml_runs.first(),
            ProfilingLevel::ModelLayerGpu => profile.mlg_runs.first(),
        };
        if let (Some(sink), Some(run)) = (sink, run) {
            let start_ns = (start_ms * 1_000_000.0).round() as u64;
            sink.write_step(&run.trace, TraceId(index as u64 + 1), start_ns);
        }

        // Apply the step's effects to the batch.
        let kind = match kind {
            StepKind::Prefill {
                request,
                prompt_tokens,
            } => {
                let r = trace
                    .requests
                    .iter()
                    .find(|r| r.id == request)
                    .expect("admitted request exists");
                tokens += 1; // prefill emits the first token
                let remaining = r.decode_tokens - 1;
                let mut record = RequestRecord {
                    id: r.id,
                    arrival_ms: r.arrival_ms,
                    admitted_ms: start_ms,
                    first_token_ms: end_ms,
                    completed_ms: end_ms,
                    prompt_tokens: r.prompt_tokens,
                    decode_tokens: r.decode_tokens,
                };
                if remaining > 0 {
                    record.completed_ms = f64::NAN; // patched at completion
                    active.push(Active {
                        id: r.id,
                        cache_len: r.prompt_tokens,
                        remaining,
                    });
                }
                requests.push(record);
                StepKind::Prefill {
                    request,
                    prompt_tokens,
                }
            }
            StepKind::Decode {
                batch,
                attend_tokens,
                ..
            } => {
                decode_weight
                    .entry(shape)
                    .and_modify(|w| *w += latency_ms)
                    .or_insert(latency_ms);
                let mut completed = Vec::new();
                for a in &mut active {
                    a.cache_len += 1;
                    a.remaining -= 1;
                    tokens += 1;
                    if a.remaining == 0 {
                        completed.push(a.id);
                        let rec = requests
                            .iter_mut()
                            .find(|r| r.id == a.id)
                            .expect("active request has a record");
                        rec.completed_ms = end_ms;
                    }
                }
                active.retain(|a| a.remaining > 0);
                StepKind::Decode {
                    batch,
                    attend_tokens,
                    completed,
                }
            }
        };

        steps.push(StepRecord {
            index,
            start_ms,
            latency_ms,
            kind,
        });
        clock_ms = end_ms;
    }

    // The most latency-weighted decode shape represents the serving
    // workload on the roofline.
    let representative_decode = decode_weight
        .iter()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(b.0)))
        .and_then(|(shape, _)| memo.get(shape).cloned());

    requests.sort_by_key(|r| r.id);
    ServingReport {
        model: model.label(),
        max_batch: cfg.max_batch,
        steps,
        requests,
        makespan_ms: clock_ms,
        tokens_emitted: tokens,
        representative_decode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::XspConfig;
    use crate::scheduler::Parallelism;
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;

    fn xsp(parallelism: Parallelism) -> Xsp {
        Xsp::new(
            XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
                .runs(1)
                .parallelism(parallelism),
        )
    }

    fn small_trace() -> ArrivalTrace {
        ArrivalTrace::synthetic(7, 6, 40.0, (16, 48), (4, 12))
    }

    fn quick_cfg() -> ServingConfig {
        ServingConfig::default()
            .max_batch(4)
            .level(ProfilingLevel::Model)
    }

    #[test]
    fn synthetic_trace_is_seed_deterministic() {
        let a = ArrivalTrace::synthetic(42, 20, 100.0, (8, 64), (1, 32));
        let b = ArrivalTrace::synthetic(42, 20, 100.0, (8, 64), (1, 32));
        assert_eq!(a, b);
        let c = ArrivalTrace::synthetic(43, 20, 100.0, (8, 64), (1, 32));
        assert_ne!(a, c);
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert!(a
            .requests
            .iter()
            .all(|r| (8..=64).contains(&r.prompt_tokens) && (1..=32).contains(&r.decode_tokens)));
    }

    #[test]
    fn every_request_completes_and_tokens_add_up() {
        let trace = small_trace();
        let report = simulate(
            &xsp(Parallelism::Serial),
            ServingModel::Gpt2Small,
            &trace,
            &quick_cfg(),
        );
        assert_eq!(report.requests.len(), trace.requests.len());
        let expected: usize = trace.requests.iter().map(|r| r.decode_tokens).sum();
        assert_eq!(report.tokens_emitted, expected);
        for r in &report.requests {
            assert!(r.arrival_ms <= r.admitted_ms);
            assert!(r.admitted_ms < r.first_token_ms);
            assert!(r.first_token_ms <= r.completed_ms);
            assert!(!r.completed_ms.is_nan());
        }
        assert!(report.tokens_per_s() > 0.0);
        assert!(report.makespan_ms > 0.0);
    }

    #[test]
    fn occupancy_and_splits_are_consistent() {
        let report = simulate(
            &xsp(Parallelism::Serial),
            ServingModel::Gpt2Small,
            &small_trace(),
            &quick_cfg(),
        );
        let occ = report.mean_occupancy_percent();
        assert!(occ > 0.0 && occ <= 100.0, "occupancy {occ}");
        let covered = report.prefill_ms() + report.decode_ms() + report.idle_ms();
        assert!((covered - report.makespan_ms).abs() < 1e-6);
        assert!(report.mean_ttft_ms() > 0.0);
    }

    #[test]
    fn scheduler_is_thread_count_invariant() {
        let trace = small_trace();
        let cfg = quick_cfg();
        let serial = simulate(
            &xsp(Parallelism::Serial),
            ServingModel::Gpt2Small,
            &trace,
            &cfg,
        );
        let fixed = simulate(
            &xsp(Parallelism::Fixed(4)),
            ServingModel::Gpt2Small,
            &trace,
            &cfg,
        );
        assert_eq!(serial.steps, fixed.steps);
        assert_eq!(serial.requests, fixed.requests);
        assert_eq!(serial.tokens_emitted, fixed.tokens_emitted);
    }

    #[test]
    fn decode_steps_dominate_and_memoization_bounds_profiles() {
        let report = simulate(
            &xsp(Parallelism::Serial),
            ServingModel::Gpt2Small,
            &small_trace(),
            &quick_cfg(),
        );
        let decodes = report
            .steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Decode { .. }))
            .count();
        let prefills = report.steps.len() - decodes;
        assert_eq!(prefills, report.requests.len());
        assert!(
            decodes > prefills,
            "{decodes} decodes vs {prefills} prefills"
        );
    }

    #[test]
    fn streamed_spans_are_byte_identical_across_thread_counts() {
        let trace = small_trace();
        let cfg = quick_cfg().level(ProfilingLevel::ModelLayer);
        let capture = |parallelism| {
            let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
            impl std::io::Write for Shared {
                fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                    self.0.lock().unwrap().extend_from_slice(b);
                    Ok(b.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let sink = ExportSink::new(Shared(buf.clone()));
            simulate_streaming(
                &xsp(parallelism),
                ServingModel::Gpt2Small,
                &trace,
                &cfg,
                Some(&sink),
            );
            sink.finish().unwrap();
            let bytes = buf.lock().unwrap().clone();
            bytes
        };
        let serial = capture(Parallelism::Serial);
        let fixed = capture(Parallelism::Fixed(4));
        assert!(!serial.is_empty());
        assert_eq!(serial, fixed);
        // per-step trace ids and virtual-time offsets made it into the
        // stream: the first span of step 2 starts after step 1's offset
        let text = String::from_utf8(serial).unwrap();
        assert!(
            text.contains("\"trace_id\":2"),
            "restamped trace ids missing"
        );
    }
}
