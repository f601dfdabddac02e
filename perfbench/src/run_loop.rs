//! The closed loop every workload runs in, and the outcome it hands to
//! the report.

use crate::rec::{OpRec, Rec, SpanRec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Working directory of this run (cache files, the daemon socket).
    pub work_dir: std::path::PathBuf,
}

/// Times a workload is set up in one run; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Fewest ops a timed phase holds, so that at least ten samples lie beyond
/// the p90.
pub const MIN_OPS: usize = 100;

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Wall time of every op of the timed phase, ms.
    pub op_ms: Vec<f64>,
    /// Traced run only: op times of an untraced phase of the same run.
    pub baseline_op_ms: Vec<f64>,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
    /// Untraced run only: peak resident set during the timed phase, MiB.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the human report.
    pub failures: Vec<String>,
    pub spans: Vec<SpanRec>,
    pub ops: Vec<OpRec>,
    /// Ops whose layer calls the traced run re-enacted one at a time.
    pub probed_ops: u64,
    /// Traced run only: ops whose exact counts differ from an earlier op
    /// on the same input (each also counts as a failed op).
    pub count_mismatches: u64,
    /// Process-wide allocations per op (count, bytes), traced run only.
    pub alloc_per_op: (f64, f64),
    /// Extra lines for the human report.
    pub notes: Vec<String>,
}

/// A workload driven by one closed-loop client.
pub trait Workload {
    /// Distinct inputs in one rotation; op `i` runs input `i % cycle_len`.
    fn cycle_len(&self) -> usize;
    /// Untimed, right before op `i`: builds inputs that the command would
    /// already hold when it starts.
    fn prepare(&mut self, _i: usize) {}
    /// The op itself: exactly the calls the command makes. It keeps its
    /// output for [`Workload::keep`].
    fn op(&mut self, i: usize, rec: &Rec) -> Result<(), String>;
    /// Untimed, right after op `i`: digests the op's output for
    /// [`Workload::verify`] and records the op's exact counters.
    fn keep(&mut self, i: usize, rec: &Rec);
    /// Traced run only, after the timed phase: re-enacts the layer calls
    /// inside op `i` one public call at a time.
    fn probe(&mut self, i: usize, rec: &Rec);
    /// After the timed phases: compares every kept output with its
    /// reference; one message per mismatching op.
    fn verify(&mut self) -> Vec<String>;
    /// Lines describing the inputs, for the human report.
    fn describe(&self) -> Vec<String>;
}

/// Sets the workload up `SETUPS` times (keeping the last instance), then
/// runs it in a closed loop. The untraced run measures the peak resident
/// set over its timed phase alone. The traced run spends its first third
/// untraced (the baseline for the tracing overhead), then traces ops, then
/// probes one rotation; an op whose exact counts differ from an earlier op
/// on the same input fails.
pub fn closed_loop<W: Workload>(cfg: &RunCfg, setup: impl Fn() -> W) -> Outcome {
    let mut out = Outcome::default();
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup());
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one setup");
    out.notes = w.describe();
    let cycle = w.cycle_len();
    let origin = Instant::now();

    let run_phase = |w: &mut W, rec: &Rec, seconds: f64, out: &mut Outcome| {
        let mut times = Vec::new();
        let begin = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let cap = Duration::from_secs_f64(seconds * 3.0);
        let mut i = 0;
        let mut untimed = Duration::ZERO;
        // A phase ends on a whole number of rotations, so that every run
        // times the same mix of inputs whatever the seed's order.
        while (begin.elapsed() < budget || i < MIN_OPS || i % cycle != 0) && begin.elapsed() < cap {
            let t = Instant::now();
            w.prepare(i);
            untimed += t.elapsed();
            rec.begin_op(i as u32, (i % cycle) as u64, i < cycle);
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                rec.span_counted("op", crate::rec::Counted::Process, || w.op(i, rec))
            }));
            times.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match result {
                Ok(Ok(())) => {
                    let t = Instant::now();
                    w.keep(i, rec);
                    untimed += t.elapsed();
                }
                Ok(Err(e)) => {
                    out.failed += 1;
                    out.failures.push(format!("op {i}: {e}"));
                }
                Err(_) => {
                    out.failed += 1;
                    out.failures.push(format!("op {i}: panicked"));
                }
            }
            i += 1;
        }
        // Building inputs and digesting outputs is the benchmark's work,
        // not the program's.
        (times, (begin.elapsed() - untimed).as_secs_f64())
    };

    if cfg.traced {
        let quiet = Rec::new(false, origin);
        let (baseline, _) = run_phase(&mut w, &quiet, cfg.seconds / 3.0, &mut out);
        out.baseline_op_ms = baseline;
        crate::alloc::enable();
        let rec = Rec::new(true, origin);
        let (times, wall) = run_phase(&mut w, &rec, cfg.seconds * 2.0 / 3.0, &mut out);
        out.op_ms = times;
        out.wall_s = wall;
        for i in 0..cycle {
            rec.probe_op(i as u32);
            rec.span("probe", || w.probe(i, &rec));
        }
        out.probed_ops = cycle as u64;
        let (spans, ops) = rec.finish();
        out.spans = spans;
        out.ops = ops;
        out.alloc_per_op = op_alloc_means(&out.spans, &out.ops);
        let mismatches = crate::report::SpanIndex::new(&out).count_mismatches(&out);
        out.count_mismatches = mismatches.len() as u64;
        for (op, first) in mismatches {
            out.failed += 1;
            out.failures.push(format!(
                "op {op}: exact counts differ from those of op {first}, which ran the same input"
            ));
        }
    } else {
        let rec = Rec::new(false, origin);
        let reset = reset_peak_rss();
        let (times, wall) = run_phase(&mut w, &rec, cfg.seconds, &mut out);
        out.peak_rss_mb = peak_rss_mb();
        if let Err(e) = reset {
            out.notes.push(format!(
                "peak_rss_mb includes set-up: cannot reset the high-water mark ({e})"
            ));
        }
        out.op_ms = times;
        out.wall_s = wall;
    }
    for failure in w.verify() {
        out.failed += 1;
        out.failures.push(failure);
    }
    out
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so that the peak read after the timed phase is the timed
/// phase's own. Memory that earlier set-ups freed but the allocator kept is
/// returned to the system first, so that it cannot hide growth.
fn reset_peak_rss() -> std::io::Result<()> {
    extern "C" {
        /// glibc: releases free heap memory to the system.
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call at any time from any
    // thread.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process since the last reset, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A fast 64-bit digest of an op's output (word-at-a-time multiply-rotate),
/// fed in pieces: equal bytes give equal digests however they are split.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest {
    h: u64,
    len: u64,
    /// The bytes of an incomplete word, little-endian, and their number.
    tail: u64,
    tail_len: u32,
}

impl Digest {
    fn mix(&mut self, word: u64) {
        self.h = (self.h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn push_byte(&mut self, b: u8) {
        self.tail |= (b as u64) << (8 * self.tail_len);
        self.tail_len += 1;
        if self.tail_len == 8 {
            self.mix(self.tail);
            self.tail = 0;
            self.tail_len = 0;
        }
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        while self.tail_len > 0 {
            let Some((&b, rest)) = bytes.split_first() else {
                return;
            };
            self.push_byte(b);
            bytes = rest;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.push_byte(b);
        }
    }

    /// Bytes digested so far.
    pub fn bytes_in(&self) -> u64 {
        self.len
    }

    pub fn finish(mut self) -> u64 {
        self.mix(self.tail);
        self.mix(self.len);
        self.h
    }
}

/// The [`Digest`] of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.update(bytes);
    d.finish()
}

/// Process-wide allocations per op over the first rotation, from the `op`
/// spans (which count process-wide).
fn op_alloc_means(spans: &[SpanRec], ops: &[OpRec]) -> (f64, f64) {
    let first: std::collections::HashSet<u32> =
        ops.iter().filter(|o| o.first_cycle).map(|o| o.op).collect();
    let (mut n, mut allocs, mut bytes) = (0u64, 0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.name == "op" && first.contains(&s.op))
    {
        n += 1;
        allocs += s.allocs.allocs;
        bytes += s.allocs.bytes;
    }
    let n = n.max(1) as f64;
    (allocs as f64 / n, bytes as f64 / n)
}

/// The workload seed's generator (splitmix64): it only shapes inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{digest, Digest};

    #[test]
    fn digest_does_not_depend_on_how_bytes_are_split() {
        let bytes: Vec<u8> = (0..61u8).map(|b| b.wrapping_mul(37)).collect();
        let whole = digest(&bytes);
        for a in 0..bytes.len() {
            for b in a..bytes.len() {
                let mut d = Digest::default();
                d.update(&bytes[..a]);
                d.update(&bytes[a..b]);
                d.update(&bytes[b..]);
                assert_eq!(d.finish(), whole, "split at {a} and {b}");
            }
        }
        assert_ne!(digest(&bytes[..60]), whole);
        assert_ne!(digest(&[0]), digest(&[]));
    }
}
