//! `daemon_sessions`: one op is one session over a persistent connection to
//! an in-process `xspd`, driven by a closed-loop client.
//!
//! One client: with two, the clients and their connection threads saturate
//! both cores of the 2-core reference host, and the figures follow every
//! change in the host's load (in one ten-run set, `ops_per_s` spread by 25%
//! and `op_ms_p50` by 28%).
//!
//! The client and the daemon's threads are pinned to one CPU. Every call of
//! a session is a blocking round trip, so the client and its connection
//! thread only ever take turns and a second CPU adds no parallelism. What
//! it adds is a cross-CPU wake-up on every hand-off, whose latency on the
//! reference VM follows the host's load: unpinned, five seeds spread
//! 16–19% in `ops_per_s` and the latency percentiles; pinned, 6–9%, at the
//! same throughput.

use super::profile_cold;
use crate::rec::{Counted, Rec};
use crate::report::SpanIndex;
use crate::run_loop::{digest, Outcome, Rng, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use xsp_core::export::{export_profile, export_run_profile, ExportFormat};
use xsp_core::pipeline::profile_from_trace;
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp};
use xsp_daemon::client::{spans_to_binary, spans_to_jsonl};
use xsp_daemon::{spawn, DaemonClient, DaemonConfig, DaemonHandle, OnFull, OpenOptions, Session};
use xsp_models::zoo;
use xsp_trace::export::{read_span_binary, read_span_json_lines};
use xsp_trace::{Span, Trace};

/// Threads checking outputs after the timed phase (the daemon is stopped
/// and the pin released by then, so they may use both cores).
const VERIFY_THREADS: usize = 2;

/// A CPU set as the kernel takes it: glibc's `cpu_set_t`, 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread, and every thread it spawns from then on, on
/// one CPU (the lowest it may use); dropping it gives the calling thread
/// its former CPUs back.
struct OnOneCpu {
    cpu: usize,
    former: CpuSet,
}

impl OnOneCpu {
    fn pin() -> Option<Self> {
        let mut former: CpuSet = [0; 16];
        // SAFETY: the pointer and size describe `former`, a live, writable
        // `cpu_set_t`-sized buffer; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut former) } != 0 {
            return None;
        }
        let cpu = (0..1024).find(|&c| former[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above, for the readable buffer `one`.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
            return None;
        }
        Some(Self { cpu, former })
    }
}

impl Drop for OnOneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`, for the readable buffer `self.former`. A
        // failure leaves the thread pinned, which only slows it down.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.former) };
    }
}

/// Zoo models whose M/L/G captures sessions stream: about 2k to 6k spans,
/// in steps of 10–30%, so that session times spread smoothly instead of
/// clustering by model.
const MODELS: [&str; 8] = [
    "MobileNet_v1_0.25_128",
    "SRGAN",
    "GPT2_Small_256",
    "BVLC_GoogLeNet_Caffe",
    "ResNet_v1_50",
    "Inception_v2",
    "SSD_MobileNet_v1_FPN",
    "MLPerf_SSD_ResNet34_1200x1200",
];

/// Append batches per session; the live export follows batch `BATCHES / 2`.
const BATCHES: usize = 8;

/// Every fourth session repeats the previous session's content byte for
/// byte; the others carry distinct content.
const REPEAT_EVERY: usize = 4;

/// Final-export formats, cycled over distinct contents and shifted by one
/// per pass over the models, so each model meets three of the four.
const FORMATS: [ExportFormat; 4] = [
    ExportFormat::Chrome,
    ExportFormat::Folded,
    ExportFormat::Spans,
    ExportFormat::Binary,
];

/// Sessions in one rotation: three passes over the models, since one
/// session in `REPEAT_EVERY` repeats. Sessions in the same place of two
/// rotations stream the same capture, export it in the same format and
/// repeat (or not) alike, so their exact counts must be equal.
const CYCLE: usize = REPEAT_EVERY * MODELS.len();

/// The content of one session: a base capture shifted in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Content {
    base: usize,
    offset_ns: u64,
    format: usize,
}

/// The offset of the `n`-th distinct content: whole seconds from 1000 s
/// on, so that for the first 9000 contents every shifted timestamp has 13
/// digits and a capture's bodies keep their size from session to session.
fn offset_ns(n: u64) -> u64 {
    (1_000 + n) * 1_000_000_000
}

/// The content's spans, split into the session's append batches.
fn batches(bases: &[Vec<Span>], c: Content) -> Vec<Vec<Span>> {
    let spans: Vec<Span> = bases[c.base]
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.start_ns += c.offset_ns;
            s.end_ns += c.offset_ns;
            s
        })
        .collect();
    let per = spans.len().div_ceil(BATCHES);
    spans.chunks(per).map(<[Span]>::to_vec).collect()
}

/// What the daemon answered in one session.
#[derive(Debug, Clone, Copy)]
struct Answers {
    /// Digests of the live and the final export.
    live: u64,
    last: u64,
    acked_spans: u64,
    correlation_passes: u64,
    export_cache_hits: u64,
}

/// One completed session, digested for [`Workload::verify`].
#[derive(Debug, Clone, Copy)]
struct Seen {
    content: Content,
    live: u64,
    last: u64,
}

pub struct DaemonSessions {
    bases: Vec<Vec<Span>>,
    order: Vec<usize>,
    socket: PathBuf,
    /// Declared before `daemon`, so the connection closes before the
    /// daemon stops, and both before the pin is released.
    client: Option<DaemonClient>,
    daemon: Option<DaemonHandle>,
    pin: Option<OnOneCpu>,
    /// The next op's content and its append batches, built by `prepare`.
    content: Content,
    parts: Vec<Vec<Span>>,
    /// Distinct contents planned so far.
    distinct: u64,
    last: Option<Answers>,
    seen: Vec<Seen>,
}

impl DaemonSessions {
    /// Records the base captures, then pins itself to one CPU, spawns the
    /// daemon and connects to it. It runs on the thread that drives the
    /// ops, which it leaves pinned until `verify` or drop.
    pub fn setup(seed: u64, work_dir: &Path) -> Self {
        let mut rng = Rng::new(seed);
        let xsp = Xsp::new(profile_cold::config(profile_cold::SETUP_PARALLELISM));
        let bases: Vec<Vec<Span>> = MODELS
            .iter()
            .map(|name| {
                let entry = zoo::by_name(name).unwrap_or_else(|| panic!("zoo has {name}"));
                let profile = xsp.run(
                    ProfileRequest::new(&entry.graph(1 + rng.below(2)))
                        .level(ProfilingLevel::ModelLayerGpu),
                );
                // What a traced process streams: the capture as span-JSON-lines.
                let mut jsonl = Vec::new();
                export_profile(&profile, ExportFormat::Spans, &mut jsonl)
                    .expect("in-memory export");
                read_span_json_lines(&jsonl[..])
                    .expect("capture parses")
                    .into_spans()
            })
            .collect();
        let mut order: Vec<usize> = (0..MODELS.len()).collect();
        rng.shuffle(&mut order);
        let socket = work_dir.join("xspd.sock");
        let pin = OnOneCpu::pin();
        let daemon = spawn(DaemonConfig::new(&socket)).expect("daemon binds its socket");
        let client = DaemonClient::connect(&socket).expect("client connects to the daemon");
        Self {
            bases,
            order,
            socket,
            client: Some(client),
            daemon: Some(daemon),
            pin,
            content: Content {
                base: 0,
                offset_ns: 0,
                format: 0,
            },
            parts: Vec::new(),
            distinct: 0,
            last: None,
            seen: Vec::new(),
        }
    }

    /// The content of session `i`, with distinct-content number `n`.
    fn content(&self, i: usize, n: u64) -> Content {
        let slot = i % CYCLE;
        // Distinct contents before this one in its rotation.
        let j = slot - slot / REPEAT_EVERY;
        Content {
            base: self.order[j % MODELS.len()],
            offset_ns: offset_ns(n),
            format: (j + j / MODELS.len()) % FORMATS.len(),
        }
    }
}

/// Runs one session over `client`.
fn session(
    client: &mut DaemonClient,
    parts: &[Vec<Span>],
    format: ExportFormat,
    rec: &Rec,
) -> Result<Answers, String> {
    let err = |what: &str, e: xsp_daemon::ClientError| format!("{what}: {e}");
    let id = rec
        .span_counted("daemon.open", Counted::Thread, || {
            client.open(&OpenOptions::default())
        })
        .map_err(|e| err("open", e))?;
    let (mut live, mut acked_spans, mut passes, mut hits) = (0, 0, 0, 0);
    for (b, part) in parts.iter().enumerate() {
        let ack = rec
            .span_counted("daemon.append", Counted::Thread, || {
                if b % 2 == 0 {
                    client.append_spans(id, part)
                } else {
                    client.append_spans_binary(id, part)
                }
            })
            .map_err(|e| err("append", e))?;
        acked_spans = ack.stats.total;
        if b + 1 == BATCHES / 2 {
            let (bytes, p) = rec
                .span_counted("daemon.export", Counted::Thread, || {
                    client.export_counting_passes(id, ExportFormat::Chrome)
                })
                .map_err(|e| err("live export", e))?;
            // The pass count is the session's lifetime total: an export
            // served from the shared cache adds none.
            hits += (p == passes) as u64;
            passes = p;
            live = digest(&bytes);
        }
    }
    let (bytes, p) = rec
        .span_counted("daemon.export_final", Counted::Thread, || {
            client.export_counting_passes(id, format)
        })
        .map_err(|e| err("final export", e))?;
    hits += (p == passes) as u64;
    rec.span_counted("daemon.close", Counted::Thread, || client.close(id))
        .map_err(|e| err("close", e))?;
    Ok(Answers {
        live,
        last: digest(&bytes),
        acked_spans,
        correlation_passes: p,
        export_cache_hits: hits,
    })
}

impl Workload for DaemonSessions {
    fn cycle_len(&self) -> usize {
        CYCLE
    }

    /// Plans session `i`'s content and splits it into batches, as the
    /// traced process would already have its spans when it connects.
    fn prepare(&mut self, i: usize) {
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
            // Repeats the previous session's content byte for byte.
            return;
        }
        self.content = self.content(i, self.distinct);
        self.distinct += 1;
        self.parts = batches(&self.bases, self.content);
    }

    fn op(&mut self, _i: usize, rec: &Rec) -> Result<(), String> {
        let client = self.client.as_mut().ok_or("no connection to the daemon")?;
        match session(client, &self.parts, FORMATS[self.content.format], rec) {
            Ok(answers) => {
                self.last = Some(answers);
                Ok(())
            }
            Err(e) => {
                // A broken connection would fail every later op.
                self.client = DaemonClient::connect(&self.socket).ok();
                Err(e)
            }
        }
    }

    fn keep(&mut self, _i: usize, rec: &Rec) {
        let a = self.last.take().expect("op kept its answers");
        rec.count("daemon.appends", self.parts.len() as u64);
        rec.count("daemon.acked_spans", a.acked_spans);
        rec.count("daemon.correlation_passes", a.correlation_passes);
        rec.count("daemon.export_cache_hits", a.export_cache_hits);
        rec.count(
            "trace.spans_per_op",
            self.parts.iter().map(Vec::len).sum::<usize>() as u64,
        );
        self.seen.push(Seen {
            content: self.content,
            live: a.live,
            last: a.last,
        });
    }

    /// Re-enacts session `i`'s layer calls in process, one public call at a
    /// time, on a standalone session (no shared export cache).
    fn probe(&mut self, i: usize, rec: &Rec) {
        let content = self.content(i, i as u64);
        let parts = batches(&self.bases, content);
        let mut session = Session::new(1, xsp_daemon::DEFAULT_QUOTA, OnFull::Shed, None);
        for (b, part) in parts.iter().enumerate() {
            let binary = b % 2 == 1;
            let body = rec.span("daemon.client_encode", || {
                if binary {
                    spans_to_binary(part)
                } else {
                    spans_to_jsonl(part)
                }
            });
            let spans = if binary {
                rec.span("trace.parse_xspb", || read_span_binary(&body[..]))
                    .expect("client bytes parse")
            } else {
                rec.span("trace.parse_jsonl", || read_span_json_lines(&body[..]))
                    .expect("client bytes parse")
            }
            .into_spans();
            rec.span("daemon.session_append", || session.append(spans))
                .expect("capture fits the quota");
            if b + 1 == BATCHES / 2 {
                black_box(rec.span("daemon.session_export", || {
                    session.export_bytes(ExportFormat::Chrome)
                }));
            }
        }
        black_box(rec.span("daemon.session_export", || {
            session.export_bytes(FORMATS[content.format])
        }));
    }

    fn describe(&self) -> Vec<String> {
        let order: Vec<&str> = self.order.iter().map(|&m| MODELS[m]).collect();
        let pinned = match &self.pin {
            Some(p) => format!("client and daemon pinned to CPU {}", p.cpu),
            None => "client and daemon not pinned: the CPU affinity call failed".to_owned(),
        };
        vec![
            format!(
                "captures, in session order: {} ({BATCHES} batches each, every \
                 {REPEAT_EVERY}th session a repeat)",
                order.join(" ")
            ),
            pinned,
        ]
    }

    /// Daemon equals one-shot: each export must equal the offline
    /// conversion (`xsp export --from`) of the same content. The daemon is
    /// stopped first, so that checking puts no load on it; the conversions
    /// run on both cores, once per distinct content.
    fn verify(&mut self) -> Vec<String> {
        self.client = None;
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
        }
        self.pin = None;
        let mut distinct: Vec<Content> = self.seen.iter().map(|x| x.content).collect();
        distinct.sort_by_key(|c| (c.offset_ns, c.base));
        distinct.dedup();
        let bases = &self.bases;
        let convert = |spans: Vec<Span>, format| {
            let profile =
                profile_from_trace(Trace::from_spans(spans), ProfilingLevel::ModelLayerGpu);
            let mut out = Vec::new();
            export_run_profile(&profile, format, &mut out).expect("in-memory export");
            digest(&out)
        };
        let want: HashMap<Content, (u64, u64)> = std::thread::scope(|scope| {
            let chunks: Vec<_> = distinct
                .chunks(distinct.len().div_ceil(VERIFY_THREADS).max(1))
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&c| {
                                let parts = batches(bases, c);
                                let prefix: Vec<Span> = parts[..BATCHES / 2].concat();
                                let live = convert(prefix, ExportFormat::Chrome);
                                let last = convert(parts.concat(), FORMATS[c.format]);
                                (c, (live, last))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            chunks
                .into_iter()
                .flat_map(|h| h.join().expect("verifier thread"))
                .collect()
        });
        self.seen
            .iter()
            .filter(|x| want[&x.content] != (x.live, x.last))
            .map(|x| {
                format!(
                    "session on {} @ +{} ns: daemon export differs from the offline conversion",
                    MODELS[x.content.base], x.content.offset_ns
                )
            })
            .collect()
    }
}

/// The append and live-export round-trip percentiles, from the traced
/// phase's spans, and `daemon.transport_ms`: the append round trip minus
/// what the client encodes and what the daemon parses and appends (framing,
/// server and socket).
pub fn derived(out: &Outcome) -> HashMap<&'static str, f64> {
    use crate::report::percentile;
    let idx = SpanIndex::new(out);
    let append = idx.op_call_durations_ms("daemon.append");
    let export = idx.op_call_durations_ms("daemon.export");
    let transport = idx.call_ms("daemon.append")
        - idx.call_ms("daemon.client_encode")
        - idx.call_ms("trace.parse_jsonl")
        - idx.call_ms("trace.parse_xspb")
        - idx.call_ms("daemon.session_append");
    HashMap::from([
        ("append_ms_p50", percentile(&append, 50.0)),
        ("append_ms_p90", percentile(&append, 90.0)),
        ("export_ms_p50", percentile(&export, 50.0)),
        ("export_ms_p90", percentile(&export, 90.0)),
        ("daemon.transport_ms", transport),
    ])
}
