//! The content-addressed profile cache: fingerprinted, shared, persistent.
//!
//! Every sweep, serving simulation, and repeated CLI invocation profiles
//! `(graph, config, level, mode)` points it has already seen. Because every
//! run is seed-deterministic — the determinism contract the whole test
//! suite enforces — the resulting [`LeveledProfile`] is a pure function of
//! those inputs, which makes profile reuse safe at any granularity:
//!
//! * [`GraphFingerprint`] is the content address: a 128-bit FNV-1a hash
//!   over the graph structure (layers, params, batch), framework
//!   personality, system, profiling level, mode, and the measurement
//!   policy knobs that shape the runs (`runs`, `trim`, `seed`, `jitter`,
//!   `metrics`, `library_level`, `host_level`).
//!   The engine's [`Parallelism`](crate::scheduler::Parallelism) setting
//!   and any attached export sink are deliberately *excluded*: they cannot
//!   change the profile bytes, so a profile computed at `XSP_THREADS=4`
//!   serves a hit to a serial run and vice versa.
//! * [`ShardedCache`] is the in-memory tier: key-sharded
//!   `parking_lot`-locked maps holding [`Arc`]-shared values, so a hit is
//!   a pointer bump, not a span-vector deep copy. [`global`] hands out the
//!   process-wide [`ProfileCache`] that [`Xsp::run`](crate::profile::Xsp)
//!   consults when the config opts in via
//!   [`XspConfig::cached`](crate::profile::XspConfig).
//! * `.xspc` is the on-disk tier: a corruption-safe, length-prefixed
//!   envelope carrying the fingerprint, the profile metadata, and every
//!   run's spans as an embedded `.xspb` stream — see [`write_xspc`] /
//!   [`read_xspc`] and the directory helpers ([`persist_to_dir`],
//!   [`load_from_dir`], [`scan_dir`], [`clear_dir`]) behind the
//!   `xsp cache` CLI verbs.
//!
//! Byte-identity is the contract: a profile served from the cache (memory
//! or disk) exports byte-identically to a cold re-profile at any worker
//! count. The in-memory tier shares the exact object, and the disk tier
//! stores the runs' correlated spans verbatim, so a reload rebuilds each
//! run's correlated trace from them without correlating again.
//!
//! A reload validates eagerly and decodes lazily. [`read_xspc`] checks
//! every run record with the `.xspb` reader's own checks but builds no
//! span, so a corrupt file still fails at load (and degrades to a
//! recompute); each run's spans are decoded, and its phase, layer and
//! kernel tables extracted, when a reader first touches them. A serving
//! step reads the M runs' phases and streams the first run at its level;
//! only the representative decode shape's kernel table reads the M/L/G
//! runs and the first metric run. The runs nothing reads cost their
//! validation walk and nothing more.

use crate::profile::{LeveledProfile, ProfileMode, ProfilingLevel, XspConfig};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use xsp_framework::LayerGraph;
use xsp_trace::correlate::CorrelatedTrace;
use xsp_trace::export::{BinaryReadError, SpanBinaryWriter, ValidatedSpanBinary};

// ---------------------------------------------------------------------------
// FNV-1a 128-bit streaming hasher
// ---------------------------------------------------------------------------

/// FNV-1a offset basis for the 128-bit variant.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a prime for the 128-bit variant.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A streaming 128-bit FNV-1a hasher.
///
/// Deterministic across platforms and processes (unlike `DefaultHasher`,
/// which is randomly keyed per process), which is what lets the fingerprint
/// address on-disk cache files and lets two daemon sessions agree on a
/// content hash. Also used by the daemon to content-hash appended span
/// batches.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            state: FNV128_OFFSET,
        }
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Feeds a length-framed, labeled field: the label, a separator, the
    /// payload length, then the payload. The framing keeps adjacent fields
    /// from sliding into each other (`"ab" + "c"` never hashes like
    /// `"a" + "bc"`).
    pub fn write_field(&mut self, label: &str, payload: &[u8]) {
        self.write(label.as_bytes());
        self.write(&[0xFF]);
        self.write(&(payload.len() as u64).to_le_bytes());
        self.write(payload);
    }

    /// The current hash value.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// GraphFingerprint
// ---------------------------------------------------------------------------

/// The content address of a profiling result: a deterministic 128-bit hash
/// over everything that can change the profile's bytes — and nothing that
/// can't.
///
/// Hashed: the graph (layers, params, shapes, batch — via its canonical
/// JSON serialization), framework personality, system, profiling level,
/// mode, `runs`, `trim`, `seed`, `jitter`, the metric selection,
/// `library_level`, and `host_level`.
///
/// Excluded: [`XspConfig::parallelism`](crate::profile::XspConfig) and the
/// export sink — the determinism contract guarantees the worker count
/// never changes the result, so fingerprints are `XSP_THREADS`-independent
/// by construction (pinned by proptests in `tests/cache_determinism.rs`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphFingerprint(pub u128);

impl GraphFingerprint {
    /// Computes the fingerprint of one profiling request.
    pub fn of(
        cfg: &XspConfig,
        graph: &LayerGraph,
        level: ProfilingLevel,
        mode: ProfileMode,
    ) -> Self {
        let mut h = Fnv128::new();
        let json = |v: String| v.into_bytes();
        h.write_field(
            "graph",
            &json(serde_json::to_string(graph).expect("graph serializes")),
        );
        h.write_field(
            "framework",
            &json(serde_json::to_string(&cfg.framework).expect("framework serializes")),
        );
        h.write_field(
            "system",
            &json(serde_json::to_string(&cfg.system).expect("system serializes")),
        );
        h.write_field("level", level.label().as_bytes());
        let mode_label = match mode {
            ProfileMode::Leveled => "leveled",
            ProfileMode::ModelAndMetrics => "model+metrics",
        };
        h.write_field("mode", mode_label.as_bytes());
        h.write_field("runs", &(cfg.runs as u64).to_le_bytes());
        h.write_field("trim", &cfg.trim.to_bits().to_le_bytes());
        h.write_field("seed", &cfg.seed.to_le_bytes());
        h.write_field("jitter", &cfg.jitter.to_bits().to_le_bytes());
        h.write_field(
            "metrics",
            &json(serde_json::to_string(&cfg.metrics).expect("metrics serialize")),
        );
        h.write_field("library_level", &[cfg.library_level as u8]);
        h.write_field("host_level", &[cfg.host_level as u8]);
        Self(h.finish())
    }
}

impl fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for GraphFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GraphFingerprint({self})")
    }
}

// ---------------------------------------------------------------------------
// Sharded in-memory cache
// ---------------------------------------------------------------------------

/// Number of independent shards; keys spread by their low bits.
const SHARD_COUNT: usize = 16;

/// Default capacity (entries, across all shards) of the process-wide
/// profile cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

struct Shard<V> {
    map: HashMap<u128, V>,
    /// Insertion order, for FIFO eviction once the shard is full.
    order: VecDeque<u128>,
}

/// A key-sharded, FIFO-bounded concurrent map from 128-bit content hashes
/// to cheaply-clonable values (`Arc`s in every real use).
///
/// Sharding keeps the lock hold times of a sweep's parallel workers from
/// serializing each other: each key locks only its shard. Counters are
/// process-wide atomics surfaced through [`ShardedCache::stats`].
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// A cache bounded at roughly `capacity` entries (rounded up to a
    /// multiple of the shard count).
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARD_COUNT).max(1);
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            per_shard_capacity: per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        &self.shards[(key as usize) % SHARD_COUNT]
    }

    /// Looks a key up, counting the hit or miss.
    pub fn get(&self, key: u128) -> Option<V> {
        let found = self.shard(key).lock().map.get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or replaces) a key, evicting the shard's oldest entry when
    /// the shard is at capacity.
    pub fn insert(&self, key: u128, value: V) {
        let mut shard = self.shard(key).lock();
        if shard.map.insert(key, value).is_none() {
            shard.order.push_back(key);
            if shard.order.len() > self.per_shard_capacity {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry. Counters are preserved — clearing is an
    /// operational action, not a statistics reset.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.order.clear();
        }
    }

    /// Records a disk-tier hit (an entry rebuilt from a persisted `.xspc`
    /// after missing in memory).
    pub fn note_disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Counter snapshot of a [`ShardedCache`], reported by `xsp cache stats`
/// and the `profile_cache` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// In-memory lookups that found their entry.
    pub hits: u64,
    /// Lookups that found nothing resident (a disk rebuild may still have
    /// answered — see [`CacheStats::disk_hits`]).
    pub misses: u64,
    /// Misses answered by rebuilding a persisted `.xspc` file.
    pub disk_hits: u64,
    /// Entries dropped by FIFO eviction under capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} disk_hits={} evictions={} entries={}",
            self.hits, self.misses, self.disk_hits, self.evictions, self.entries
        )
    }
}

/// The process-wide profile cache: fingerprints to shared profiles. Hits
/// hand out another `Arc` reference to the same [`LeveledProfile`] — no
/// span vectors are copied.
pub type ProfileCache = ShardedCache<Arc<LeveledProfile>>;

/// The process-wide [`ProfileCache`], shared by every
/// [`Xsp`](crate::profile::Xsp) instance, sweep, and serving simulation in
/// the process. Created on first use with [`DEFAULT_CACHE_CAPACITY`].
pub fn global() -> &'static ProfileCache {
    static GLOBAL: OnceLock<ProfileCache> = OnceLock::new();
    GLOBAL.get_or_init(|| ShardedCache::with_capacity(DEFAULT_CACHE_CAPACITY))
}

// ---------------------------------------------------------------------------
// .xspc on-disk envelope
// ---------------------------------------------------------------------------

/// Magic bytes opening every `.xspc` stream.
pub const XSPC_MAGIC: [u8; 4] = *b"XSPC";

/// Current `.xspc` format version.
pub const XSPC_VERSION: u8 = 1;

/// Record kind: profile metadata (JSON).
const REC_META: u8 = 0x01;
/// Record kind: one run's spans as an embedded `.xspb` stream.
const REC_RUN: u8 = 0x02;

/// Upper bound on a single `.xspc` record. A run's embedded `.xspb` stream
/// aggregates many spans, so the cap is generous — but still checked
/// *before* allocation, so a corrupt length field cannot OOM the reader.
pub const XSPC_MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// Why a `.xspc` stream failed to read. Mirrors the
/// [`BinaryReadError`] taxonomy:
/// corruption is a structured refusal, never a panic or a partial profile.
#[derive(Debug)]
pub enum XspcReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The stream does not start with the `XSPC` magic.
    BadMagic,
    /// The version byte names a format this build cannot read.
    UnsupportedVersion(u8),
    /// The stream ended mid-header or mid-record.
    Truncated {
        /// Bytes actually available.
        have: usize,
        /// Bytes the structure required.
        want: usize,
    },
    /// A record length exceeds [`XSPC_MAX_RECORD_LEN`].
    Oversized {
        /// The declared record length.
        len: u32,
    },
    /// A record kind this build does not know.
    UnknownRecordKind(u8),
    /// The records parsed but do not assemble into a profile (bad meta
    /// JSON, wrong record order, run-count mismatch, trailing data).
    Malformed(String),
    /// An embedded `.xspb` run stream failed to decode.
    Spans(BinaryReadError),
    /// The embedded fingerprint does not match the expected address.
    FingerprintMismatch {
        /// The fingerprint the caller asked for.
        expected: GraphFingerprint,
        /// The fingerprint the file carries.
        found: GraphFingerprint,
    },
}

impl fmt::Display for XspcReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XspcReadError::Io(e) => write!(f, "I/O error: {e}"),
            XspcReadError::BadMagic => write!(f, "not a .xspc stream (bad magic)"),
            XspcReadError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .xspc version {v} (this build reads {XSPC_VERSION})"
                )
            }
            XspcReadError::Truncated { have, want } => {
                write!(f, "truncated .xspc stream: have {have} bytes, need {want}")
            }
            XspcReadError::Oversized { len } => write!(
                f,
                "record length {len} exceeds the {XSPC_MAX_RECORD_LEN}-byte cap"
            ),
            XspcReadError::UnknownRecordKind(k) => write!(f, "unknown .xspc record kind {k:#04x}"),
            XspcReadError::Malformed(msg) => write!(f, "malformed .xspc envelope: {msg}"),
            XspcReadError::Spans(e) => write!(f, "embedded span stream: {e}"),
            XspcReadError::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "fingerprint mismatch: expected {expected}, file carries {found}"
                )
            }
        }
    }
}

impl std::error::Error for XspcReadError {}

impl From<io::Error> for XspcReadError {
    fn from(e: io::Error) -> Self {
        XspcReadError::Io(e)
    }
}

impl From<BinaryReadError> for XspcReadError {
    fn from(e: BinaryReadError) -> Self {
        XspcReadError::Spans(e)
    }
}

/// The four run buckets of a [`LeveledProfile`], as spelled in `.xspc`
/// meta records.
const BUCKETS: [&str; 4] = ["m", "ml", "mlg", "metrics"];

/// Serializes `(fingerprint, profile)` as a `.xspc` envelope:
///
/// | section | bytes |
/// |---|---|
/// | magic | `XSPC` |
/// | version | `0x01` |
/// | fingerprint | 16, big-endian |
/// | meta record | `0x01` + u32 BE length + JSON |
/// | run records | `0x02` + u32 BE length + embedded `.xspb`, one per run |
///
/// The meta JSON carries `trim_bits`, `batch`, and one
/// `{bucket, level, rerun}` entry per run in the profile's canonical
/// [`LeveledProfile::runs`] order; run records follow in the same order,
/// so reassembly is positional.
pub fn write_xspc(
    out: &mut impl Write,
    fingerprint: GraphFingerprint,
    profile: &LeveledProfile,
) -> io::Result<()> {
    out.write_all(&XSPC_MAGIC)?;
    out.write_all(&[XSPC_VERSION])?;
    out.write_all(&fingerprint.0.to_be_bytes())?;

    let mut meta_runs = Vec::new();
    let buckets = [
        ("m", &profile.m_runs),
        ("ml", &profile.ml_runs),
        ("mlg", &profile.mlg_runs),
        ("metrics", &profile.metric_runs),
    ];
    for (bucket, runs) in &buckets {
        for run in runs.iter() {
            let mut entry = serde_json::Map::new();
            entry.insert("bucket".into(), serde_json::Value::String((*bucket).into()));
            entry.insert(
                "level".into(),
                serde_json::Value::String(run.level.label().into()),
            );
            entry.insert(
                "rerun".into(),
                serde_json::Value::Bool(run.used_serialized_rerun),
            );
            meta_runs.push(serde_json::Value::Object(entry));
        }
    }
    let mut meta = serde_json::Map::new();
    meta.insert(
        "trim_bits".into(),
        serde_json::to_value(&profile.trim.to_bits()),
    );
    meta.insert(
        "batch".into(),
        serde_json::to_value(&(profile.batch as u64)),
    );
    meta.insert("runs".into(), serde_json::Value::Array(meta_runs));
    let meta_bytes = serde_json::to_string(&serde_json::Value::Object(meta))
        .expect("meta serialization cannot fail")
        .into_bytes();
    write_record(out, REC_META, &meta_bytes)?;

    for (_, runs) in &buckets {
        for run in runs.iter() {
            let mut w = SpanBinaryWriter::new(Vec::new())?;
            for span in run.trace.iter_spans() {
                w.write_span(span)?;
            }
            let bytes = w.finish()?;
            write_record(out, REC_RUN, &bytes)?;
        }
    }
    out.flush()
}

fn write_record(out: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= XSPC_MAX_RECORD_LEN as usize,
        "record exceeds the .xspc cap"
    );
    out.write_all(&[kind])?;
    out.write_all(&(payload.len() as u32).to_be_bytes())?;
    out.write_all(payload)
}

/// Serializes to an in-memory `.xspc` buffer (see [`write_xspc`]).
pub fn xspc_to_bytes(fingerprint: GraphFingerprint, profile: &LeveledProfile) -> Vec<u8> {
    let mut out = Vec::new();
    write_xspc(&mut out, fingerprint, profile).expect("Vec writes cannot fail");
    out
}

/// Reads up to `want` bytes; errors as [`XspcReadError::Truncated`] when
/// the stream ends early (a clean distinction from transport failures,
/// which surface as [`XspcReadError::Io`]).
///
/// The buffer grows by at most the bytes already read, so a forged length
/// reserves no more than twice what the stream holds, and it never grows
/// past `want`: a reloaded run keeps its record without spare capacity.
fn read_exactly(src: &mut impl Read, want: usize) -> Result<Vec<u8>, XspcReadError> {
    let mut buf = Vec::new();
    while buf.len() < want {
        let grow = (want - buf.len()).min(buf.len().max(64 * 1024));
        buf.reserve_exact(grow);
        if src.by_ref().take(grow as u64).read_to_end(&mut buf)? < grow {
            return Err(XspcReadError::Truncated {
                have: buf.len(),
                want,
            });
        }
    }
    Ok(buf)
}

/// One parsed `.xspc` record.
fn read_record(src: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, XspcReadError> {
    let mut head = [0u8; 5];
    let mut got = 0;
    while got < head.len() {
        let n = src.read(&mut head[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    if got == 0 {
        return Ok(None); // clean end of stream
    }
    if got < head.len() {
        return Err(XspcReadError::Truncated {
            have: got,
            want: head.len(),
        });
    }
    let kind = head[0];
    let len = u32::from_be_bytes(head[1..5].try_into().expect("4 bytes"));
    if kind != REC_META && kind != REC_RUN {
        return Err(XspcReadError::UnknownRecordKind(kind));
    }
    if len > XSPC_MAX_RECORD_LEN {
        return Err(XspcReadError::Oversized { len });
    }
    let payload = read_exactly(src, len as usize)?;
    Ok(Some((kind, payload)))
}

/// Reads a `.xspc` envelope back into its fingerprint and profile.
///
/// The profile is rebuilt run by run. A stored run holds the spans its
/// correlation produced — async pairs merged, every resolved parent
/// written into the span — so it needs no correlation pass. Each run
/// record is validated here ([`ValidatedSpanBinary`]: every check the
/// `.xspb` reader makes, without building a span), so corruption anywhere
/// in the file is an [`XspcReadError`] now. No record is decoded: each
/// run's [`CorrelatedTrace`] decodes its spans on first access, and its
/// phase, layer and kernel tables are extracted on first use
/// ([`profile_from_correlated`](crate::pipeline::profile_from_correlated)).
/// The `used_serialized_rerun` flag is restored from the meta record. A
/// reloaded run's ambiguity report is empty: the live run's diagnostics
/// are not stored, and only the live pipeline reads them (to decide on a
/// serialized re-run).
pub fn read_xspc(src: &mut impl Read) -> Result<(GraphFingerprint, LeveledProfile), XspcReadError> {
    let header = read_exactly(src, 4 + 1 + 16)?;
    if header[..4] != XSPC_MAGIC {
        return Err(XspcReadError::BadMagic);
    }
    if header[4] != XSPC_VERSION {
        return Err(XspcReadError::UnsupportedVersion(header[4]));
    }
    let fingerprint = GraphFingerprint(u128::from_be_bytes(
        header[5..21].try_into().expect("16 bytes"),
    ));

    let Some((kind, meta_bytes)) = read_record(src)? else {
        return Err(XspcReadError::Malformed("missing meta record".into()));
    };
    if kind != REC_META {
        return Err(XspcReadError::Malformed(format!(
            "first record must be meta (0x01), found {kind:#04x}"
        )));
    }
    let meta_text = std::str::from_utf8(&meta_bytes)
        .map_err(|_| XspcReadError::Malformed("meta record is not UTF-8".into()))?;
    let meta: serde_json::Value = serde_json::from_str(meta_text)
        .map_err(|e| XspcReadError::Malformed(format!("meta record is not JSON: {e}")))?;
    let trim = f64::from_bits(
        meta.get("trim_bits")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| XspcReadError::Malformed("meta lacks trim_bits".into()))?,
    );
    let batch =
        meta.get("batch")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| XspcReadError::Malformed("meta lacks batch".into()))? as usize;
    let run_entries = meta
        .get("runs")
        .and_then(|v| v.as_array())
        .ok_or_else(|| XspcReadError::Malformed("meta lacks runs".into()))?;

    let mut profile = LeveledProfile {
        m_runs: Vec::new(),
        ml_runs: Vec::new(),
        mlg_runs: Vec::new(),
        metric_runs: Vec::new(),
        trim,
        batch,
    };
    for (i, entry) in run_entries.iter().enumerate() {
        let bucket = entry
            .get("bucket")
            .and_then(|v| v.as_str())
            .filter(|b| BUCKETS.contains(b))
            .ok_or_else(|| XspcReadError::Malformed(format!("run {i}: bad bucket")))?;
        let level_label = entry
            .get("level")
            .and_then(|v| v.as_str())
            .ok_or_else(|| XspcReadError::Malformed(format!("run {i}: missing level")))?;
        let level = ProfilingLevel::parse(level_label)
            .map_err(|e| XspcReadError::Malformed(format!("run {i}: {e}")))?;
        let rerun = entry
            .get("rerun")
            .and_then(|v| v.as_bool())
            .ok_or_else(|| XspcReadError::Malformed(format!("run {i}: missing rerun")))?;

        let Some((kind, payload)) = read_record(src)? else {
            return Err(XspcReadError::Malformed(format!(
                "meta names {} runs but the stream holds {i}",
                run_entries.len()
            )));
        };
        if kind != REC_RUN {
            return Err(XspcReadError::Malformed(format!(
                "run {i}: expected a run record (0x02), found {kind:#04x}"
            )));
        }
        let correlated = CorrelatedTrace::from_validated(ValidatedSpanBinary::new(payload)?);
        let mut run = crate::pipeline::profile_from_correlated(correlated, level);
        run.used_serialized_rerun = rerun;
        match bucket {
            "m" => profile.m_runs.push(run),
            "ml" => profile.ml_runs.push(run),
            "mlg" => profile.mlg_runs.push(run),
            _ => profile.metric_runs.push(run),
        }
    }
    if read_record(src)?.is_some() {
        return Err(XspcReadError::Malformed(
            "trailing records after the last run".into(),
        ));
    }
    Ok((fingerprint, profile))
}

// ---------------------------------------------------------------------------
// Cache directory helpers
// ---------------------------------------------------------------------------

/// The file name a fingerprint persists under.
pub fn xspc_file_name(fingerprint: GraphFingerprint) -> String {
    format!("{fingerprint}.xspc")
}

/// Writes `profile` to `dir/<fingerprint>.xspc` atomically (temp file +
/// rename), creating the directory if needed. Returns the final path.
pub fn persist_to_dir(
    dir: &Path,
    fingerprint: GraphFingerprint,
    profile: &LeveledProfile,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let final_path = dir.join(xspc_file_name(fingerprint));
    let tmp_path = dir.join(format!("{fingerprint}.xspc.tmp"));
    {
        let file = std::fs::File::create(&tmp_path)?;
        let mut out = io::BufWriter::new(file);
        write_xspc(&mut out, fingerprint, profile)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// Rebuilds a profile from `dir/<fingerprint>.xspc`, if present, readable,
/// and carrying the expected fingerprint. Any corruption — bad magic,
/// truncation, span decode failure, address mismatch — returns `None`:
/// a damaged cache file silently degrades to a recompute, never an error.
pub fn load_from_dir(dir: &Path, fingerprint: GraphFingerprint) -> Option<Arc<LeveledProfile>> {
    let path = dir.join(xspc_file_name(fingerprint));
    let file = std::fs::File::open(path).ok()?;
    let mut src = io::BufReader::new(file);
    let (found, profile) = read_xspc(&mut src).ok()?;
    if found != fingerprint {
        return None;
    }
    Some(Arc::new(profile))
}

/// One valid `.xspc` file found by [`scan_dir`].
#[derive(Debug, Clone)]
pub struct XspcEntry {
    /// File name within the cache directory.
    pub file: String,
    /// The fingerprint the envelope carries.
    pub fingerprint: GraphFingerprint,
    /// Number of runs in the profile.
    pub runs: usize,
    /// Total spans across all runs.
    pub spans: usize,
    /// File size in bytes.
    pub bytes: u64,
}

/// What [`scan_dir`] found: readable entries plus the files it refused.
#[derive(Debug, Clone, Default)]
pub struct DirScan {
    /// Valid cache files, sorted by file name.
    pub entries: Vec<XspcEntry>,
    /// `(file name, reason)` for every `.xspc` file that failed to read.
    pub corrupt: Vec<(String, String)>,
}

/// Inventories a cache directory for `xsp cache stats`: every `.xspc` file
/// is opened and validated, and its spans are counted by the validation
/// walk, not decoded; corrupt files are reported, not fatal. A missing
/// directory scans as empty.
pub fn scan_dir(dir: &Path) -> DirScan {
    let mut scan = DirScan::default();
    let Ok(read) = std::fs::read_dir(dir) else {
        return scan;
    };
    let mut names: Vec<String> = read
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".xspc"))
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let parsed = std::fs::File::open(&path)
            .map_err(XspcReadError::Io)
            .and_then(|f| read_xspc(&mut io::BufReader::new(f)));
        match parsed {
            Ok((fingerprint, profile)) => scan.entries.push(XspcEntry {
                file: name,
                fingerprint,
                runs: profile.runs().count(),
                spans: profile.runs().map(|run| run.trace.len()).sum(),
                bytes,
            }),
            Err(e) => scan.corrupt.push((name, e.to_string())),
        }
    }
    scan
}

/// Deletes every `*.xspc` file in `dir` (and nothing else), returning how
/// many were removed. A missing directory clears zero files.
pub fn clear_dir(dir: &Path) -> io::Result<usize> {
    let read = match std::fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0;
    for entry in read.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".xspc") {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileRequest, Xsp};
    use crate::scheduler::Parallelism;
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn cfg() -> XspConfig {
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(2)
    }

    fn tiny(batch: usize) -> LayerGraph {
        zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(batch)
    }

    #[test]
    fn fnv128_matches_reference_vectors() {
        // FNV-1a 128: the empty input hashes to the offset basis.
        assert_eq!(Fnv128::new().finish(), FNV128_OFFSET);
        let mut a = Fnv128::new();
        a.write(b"a");
        assert_ne!(a.finish(), FNV128_OFFSET);
        // Field framing keeps adjacent fields apart.
        let mut left = Fnv128::new();
        left.write_field("x", b"ab");
        left.write_field("y", b"c");
        let mut right = Fnv128::new();
        right.write_field("x", b"a");
        right.write_field("y", b"bc");
        assert_ne!(left.finish(), right.finish());
    }

    #[test]
    fn fingerprint_is_stable_and_parallelism_independent() {
        let g = tiny(2);
        let a = GraphFingerprint::of(&cfg(), &g, ProfilingLevel::Model, ProfileMode::Leveled);
        let b = GraphFingerprint::of(&cfg(), &g, ProfilingLevel::Model, ProfileMode::Leveled);
        assert_eq!(a, b);
        assert_eq!(a.to_string().len(), 32, "the file stem is 32 hex digits");
        let serial = cfg().parallelism(Parallelism::Serial);
        let fixed = cfg().parallelism(Parallelism::Fixed(7));
        assert_eq!(
            GraphFingerprint::of(&serial, &g, ProfilingLevel::Model, ProfileMode::Leveled),
            GraphFingerprint::of(&fixed, &g, ProfilingLevel::Model, ProfileMode::Leveled),
        );
    }

    #[test]
    fn fingerprint_changes_with_every_field() {
        let g = tiny(2);
        let base = GraphFingerprint::of(&cfg(), &g, ProfilingLevel::Model, ProfileMode::Leveled);
        let perturbed = [
            GraphFingerprint::of(
                &cfg(),
                &tiny(4),
                ProfilingLevel::Model,
                ProfileMode::Leveled,
            ),
            GraphFingerprint::of(&cfg(), &g, ProfilingLevel::ModelLayer, ProfileMode::Leveled),
            GraphFingerprint::of(
                &cfg(),
                &g,
                ProfilingLevel::Model,
                ProfileMode::ModelAndMetrics,
            ),
            GraphFingerprint::of(
                &cfg().runs(3),
                &g,
                ProfilingLevel::Model,
                ProfileMode::Leveled,
            ),
            GraphFingerprint::of(
                &cfg().seed(7),
                &g,
                ProfilingLevel::Model,
                ProfileMode::Leveled,
            ),
            GraphFingerprint::of(
                &cfg().library_level(true),
                &g,
                ProfilingLevel::Model,
                ProfileMode::Leveled,
            ),
            GraphFingerprint::of(
                &cfg().host_level(true),
                &g,
                ProfilingLevel::Model,
                ProfileMode::Leveled,
            ),
            GraphFingerprint::of(
                &cfg().metrics(vec![]),
                &g,
                ProfilingLevel::Model,
                ProfileMode::Leveled,
            ),
        ];
        for (i, p) in perturbed.iter().enumerate() {
            assert_ne!(base, *p, "perturbation {i} must change the fingerprint");
        }
    }

    #[test]
    fn sharded_cache_counts_hits_misses_evictions() {
        let cache: ShardedCache<Arc<u64>> = ShardedCache::with_capacity(16);
        assert!(cache.get(1).is_none());
        cache.insert(1, Arc::new(10));
        assert_eq!(cache.get(1).as_deref(), Some(&10));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // Overfill one shard: keys congruent mod SHARD_COUNT collide.
        for i in 0..4 {
            cache.insert(16 * i as u128, Arc::new(i));
        }
        assert!(cache.stats().evictions >= 1, "{}", cache.stats());
        cache.clear();
        assert!(cache.is_empty());
        // Counters survive a clear.
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn xspc_round_trip_preserves_bytes_and_flags() {
        let xsp = Xsp::new(cfg());
        let g = tiny(2);
        let profile = xsp.run(ProfileRequest::new(&g));
        let fp = GraphFingerprint::of(
            xsp.config(),
            &g,
            ProfilingLevel::ModelLayerGpu,
            ProfileMode::Leveled,
        );
        let bytes = xspc_to_bytes(fp, &profile);
        let (found, rebuilt) = read_xspc(&mut &bytes[..]).expect("round trip");
        assert_eq!(found, fp);
        assert_eq!(rebuilt.to_span_json(), profile.to_span_json());
        assert_eq!(rebuilt.batch, profile.batch);
        assert_eq!(rebuilt.trim.to_bits(), profile.trim.to_bits());
        assert_eq!(rebuilt.m_runs.len(), profile.m_runs.len());
        assert_eq!(rebuilt.metric_runs.len(), profile.metric_runs.len());
        for (a, b) in rebuilt.runs().zip(profile.runs()) {
            assert_eq!(a.level, b.level);
            assert_eq!(a.used_serialized_rerun, b.used_serialized_rerun);
            assert_eq!(a.trace_id, b.trace_id);
        }
        assert_eq!(rebuilt.model_latency_ms(), profile.model_latency_ms());
    }

    #[test]
    fn read_exactly_keeps_no_spare_capacity() {
        let bytes: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        for want in [0, 21, 64 * 1024, 64 * 1024 + 1, 300_000] {
            let got = read_exactly(&mut &bytes[..], want).expect("enough bytes");
            assert_eq!(got, bytes[..want]);
            assert_eq!(got.capacity(), want);
        }
        match read_exactly(&mut &bytes[..], 300_001) {
            Err(XspcReadError::Truncated { have, want }) => {
                assert_eq!((have, want), (300_000, 300_001));
            }
            other => panic!("expected a truncation, got {other:?}"),
        }
    }

    #[test]
    fn persist_load_scan_clear_cycle() {
        let dir = std::env::temp_dir().join(format!("xspc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let xsp = Xsp::new(cfg());
        let g = tiny(1);
        let profile = xsp.run(ProfileRequest::new(&g).level(ProfilingLevel::Model));
        let fp = GraphFingerprint::of(
            xsp.config(),
            &g,
            ProfilingLevel::Model,
            ProfileMode::Leveled,
        );
        let path = persist_to_dir(&dir, fp, &profile).expect("persist");
        assert!(path.ends_with(xspc_file_name(fp)));
        let loaded = load_from_dir(&dir, fp).expect("load back");
        assert_eq!(loaded.to_span_json(), profile.to_span_json());
        // A corrupt sibling is reported by scan and ignored by load.
        std::fs::write(dir.join(format!("{}.xspc", "0".repeat(32))), b"garbage").unwrap();
        let scan = scan_dir(&dir);
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.corrupt.len(), 1);
        assert_eq!(scan.entries[0].fingerprint, fp);
        assert!(scan.entries[0].spans > 0);
        assert!(load_from_dir(&dir, GraphFingerprint(0)).is_none());
        assert_eq!(clear_dir(&dir).unwrap(), 2);
        assert!(scan_dir(&dir).entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_scans_empty_and_clears_zero() {
        let dir = Path::new("/nonexistent/xspc-cache-dir");
        assert!(scan_dir(dir).entries.is_empty());
        assert_eq!(clear_dir(dir).unwrap(), 0);
    }
}
