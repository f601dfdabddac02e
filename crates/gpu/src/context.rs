//! The CUDA context: the simulator's public execution interface.
//!
//! A [`CudaContext`] owns the CPU↔GPU timeline pair: the shared
//! [`VirtualClock`] is the CPU (host) timeline, and a [`StreamSet`] holds
//! the asynchronous GPU-side timelines. Launching a kernel costs CPU time
//! (driver overhead plus any profiler-charged overhead), places the kernel's
//! execution window on its stream, and notifies registered [`GpuHook`]s —
//! the observable surface the CUPTI analogue builds spans from.
//!
//! `CUDA_LAUNCH_BLOCKING=1`-style serialization is a context switch: with
//! [`CudaContextConfig::launch_blocking`] set, every launch blocks the host
//! until the kernel completes. The paper uses exactly this environment
//! variable to serialize parallel events when parent reconstruction is
//! ambiguous (§III-A).

use crate::device::System;
use crate::hook::{ApiCall, GpuHook, KernelActivity, MemcpyActivity, MemcpyKind};
use crate::jitter::Jitter;
use crate::kernel::KernelDesc;
use crate::latency::LatencyModel;
use crate::stream::{StreamId, StreamSet};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xsp_trace::VirtualClock;

/// PCIe-class host↔device transfer bandwidth, bytes/s (≈ 12 GB/s pinned).
const PCIE_BANDWIDTH: f64 = 12.0e9;
/// Fixed host-side cost of a memcpy call, ns.
const MEMCPY_OVERHEAD_NS: u64 = 8_000;
/// Per-extra-replay-pass setup cost during metric collection, ns.
const REPLAY_SETUP_NS: u64 = 12_000;

/// Configuration of a simulated CUDA context.
#[derive(Debug, Clone)]
pub struct CudaContextConfig {
    /// The host/GPU system (Table VII entry).
    pub system: System,
    /// Seed for the deterministic jitter source.
    pub seed: u64,
    /// Jitter amplitude (fraction, e.g. 0.015 = ±1.5 %). Zero disables.
    pub jitter_amplitude: f64,
    /// `CUDA_LAUNCH_BLOCKING=1`: serialize every launch with the host.
    pub launch_blocking: bool,
}

impl CudaContextConfig {
    /// Default configuration for a system: 1.5 % jitter, async launches.
    pub fn new(system: System) -> Self {
        Self {
            system,
            seed: 0,
            jitter_amplitude: 0.015,
            launch_blocking: false,
        }
    }

    /// Builder: sets the jitter seed (run index).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets jitter amplitude.
    pub fn jitter(mut self, amplitude: f64) -> Self {
        self.jitter_amplitude = amplitude;
        self
    }

    /// Builder: enables `CUDA_LAUNCH_BLOCKING`-style serialization.
    pub fn launch_blocking(mut self, on: bool) -> Self {
        self.launch_blocking = on;
        self
    }
}

/// A simulated CUDA context bound to one GPU.
pub struct CudaContext {
    cfg: CudaContextConfig,
    clock: VirtualClock,
    latency: LatencyModel,
    streams: Mutex<StreamSet>,
    hooks: RwLock<Vec<Arc<dyn GpuHook>>>,
    jitter: Mutex<Jitter>,
    next_correlation: AtomicU64,
    kernels_launched: AtomicU64,
}

impl CudaContext {
    /// Creates a context with a fresh clock.
    pub fn new(cfg: CudaContextConfig) -> Self {
        Self::with_clock(cfg, VirtualClock::new())
    }

    /// Creates a context sharing an existing host clock.
    pub fn with_clock(cfg: CudaContextConfig, clock: VirtualClock) -> Self {
        let jitter = Jitter::new(cfg.seed, cfg.jitter_amplitude);
        Self {
            cfg,
            clock,
            latency: LatencyModel,
            streams: Mutex::new(StreamSet::new()),
            hooks: RwLock::new(Vec::new()),
            jitter: Mutex::new(jitter),
            next_correlation: AtomicU64::new(1),
            kernels_launched: AtomicU64::new(0),
        }
    }

    /// The shared host clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The context's configuration.
    pub fn config(&self) -> &CudaContextConfig {
        &self.cfg
    }

    /// The system this context simulates.
    pub fn system(&self) -> &System {
        &self.cfg.system
    }

    /// Number of kernels launched so far.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched.load(Ordering::Relaxed)
    }

    /// Registers a profiling hook.
    pub fn register_hook(&self, hook: Arc<dyn GpuHook>) {
        self.hooks.write().push(hook);
    }

    fn fresh_correlation_id(&self) -> u64 {
        self.next_correlation.fetch_add(1, Ordering::Relaxed)
    }

    /// Launches a kernel on `stream`, returning the CUPTI-style correlation
    /// id that links the API call to the device-side activity.
    pub fn launch_kernel(&self, desc: KernelDesc, stream: StreamId) -> u64 {
        let cid = self.fresh_correlation_id();
        self.kernels_launched.fetch_add(1, Ordering::Relaxed);
        let hooks = self.hooks.read();
        let call = ApiCall::LaunchKernel {
            name: Arc::clone(&desc.name),
        };

        let api_enter = self.clock.now();
        for h in hooks.iter() {
            h.api_enter(&call, cid, api_enter);
        }

        // CPU-side cost: driver launch + profiler-charged tracing overhead.
        let tracing_overhead: u64 = hooks.iter().map(|h| h.launch_overhead_ns()).sum();
        let cpu_cost = (self.cfg.system.gpu.launch_cpu_ns as f64
            * self.cfg.system.cpu.dispatch_scale()) as u64
            + tracing_overhead;
        let cpu_cost = self.jitter.lock().perturb(cpu_cost);
        let api_exit = self.clock.advance(cpu_cost);

        // GPU-side execution window.
        let timing = self.latency.timing(&desc, &self.cfg.system.gpu);
        let duration = self.jitter.lock().perturb(timing.duration_ns);

        // Metric collection replays the kernel; the stream is busy for every
        // pass but the *reported* activity covers one canonical execution.
        let replay: u32 = hooks
            .iter()
            .map(|h| h.replay_passes(&desc))
            .max()
            .unwrap_or(1);
        let busy = duration * replay as u64 + REPLAY_SETUP_NS * (replay.saturating_sub(1)) as u64;

        let ready = api_exit + self.cfg.system.gpu.launch_gpu_ns;
        let (start, busy_end) = self.streams.lock().enqueue(stream, ready, busy);
        let reported_end = start + duration;

        for h in hooks.iter() {
            h.api_exit(&call, cid, api_exit);
        }

        let activity = KernelActivity {
            correlation_id: cid,
            name: Arc::clone(&desc.name),
            grid: desc.grid,
            block: desc.block,
            stream,
            start_ns: start,
            end_ns: reported_end,
            occupancy: timing.occupancy,
            memory_bound: timing.memory_bound,
            desc,
        };
        for h in hooks.iter() {
            h.kernel_executed(&activity);
        }

        // Serialization: explicit CUDA_LAUNCH_BLOCKING or a profiler that
        // requires it (metric replay).
        let serialize =
            self.cfg.launch_blocking || hooks.iter().any(|h| h.requires_serialization());
        if serialize {
            self.clock.advance_to(busy_end);
        }
        cid
    }

    /// Synchronous memory copy (`cudaMemcpy`): blocks the host until the
    /// transfer completes.
    pub fn memcpy(&self, kind: MemcpyKind, bytes: u64, stream: StreamId) -> u64 {
        let cid = self.fresh_correlation_id();
        let hooks = self.hooks.read();
        let call = ApiCall::Memcpy { kind, bytes };
        let t0 = self.clock.now();
        for h in hooks.iter() {
            h.api_enter(&call, cid, t0);
        }
        let bw = match kind {
            MemcpyKind::HostToDevice | MemcpyKind::DeviceToHost => PCIE_BANDWIDTH,
            MemcpyKind::DeviceToDevice => self.cfg.system.gpu.bandwidth_bytes() / 2.0,
        };
        let duration = ((bytes as f64 / bw) * 1e9) as u64 + MEMCPY_OVERHEAD_NS;
        let duration = self.jitter.lock().perturb(duration);
        let ready = self.clock.now();
        let (start, end) = self.streams.lock().enqueue(stream, ready, duration);
        // synchronous: host waits for the device-side completion
        self.clock.advance_to(end);
        let t1 = self.clock.now();
        for h in hooks.iter() {
            h.api_exit(&call, cid, t1);
        }
        let act = MemcpyActivity {
            correlation_id: cid,
            kind,
            bytes,
            stream,
            start_ns: start,
            end_ns: end,
        };
        for h in hooks.iter() {
            h.memcpy_executed(&act);
        }
        cid
    }

    /// `cudaDeviceSynchronize`: blocks the host until all streams drain.
    pub fn synchronize(&self) {
        let cid = self.fresh_correlation_id();
        let hooks = self.hooks.read();
        let t0 = self.clock.now();
        for h in hooks.iter() {
            h.api_enter(&ApiCall::DeviceSynchronize, cid, t0);
        }
        let tail = self.streams.lock().device_tail();
        self.clock.advance_to(tail);
        // a sync call has a small fixed CPU cost even when the device is idle
        self.clock.advance(1_000);
        let t1 = self.clock.now();
        for h in hooks.iter() {
            h.api_exit(&ApiCall::DeviceSynchronize, cid, t1);
        }
    }

    /// `cudaStreamSynchronize`: blocks the host until `stream` drains.
    pub fn stream_synchronize(&self, stream: StreamId) {
        let cid = self.fresh_correlation_id();
        let hooks = self.hooks.read();
        let t0 = self.clock.now();
        for h in hooks.iter() {
            h.api_enter(&ApiCall::StreamSynchronize { stream }, cid, t0);
        }
        let tail = self.streams.lock().tail(stream);
        self.clock.advance_to(tail);
        self.clock.advance(800);
        let t1 = self.clock.now();
        for h in hooks.iter() {
            h.api_exit(&ApiCall::StreamSynchronize { stream }, cid, t1);
        }
    }

    /// `cudaMalloc`: costs host time and reaches the hooks, which record it
    /// as a runtime API call. The bytes a layer allocates are reported on
    /// its layer span (`alloc_bytes`), not here.
    pub fn malloc(&self, bytes: u64) {
        let cid = self.fresh_correlation_id();
        let hooks = self.hooks.read();
        let t0 = self.clock.now();
        for h in hooks.iter() {
            h.api_enter(&ApiCall::Malloc { bytes }, cid, t0);
        }
        self.clock.advance(1_500);
        let t1 = self.clock.now();
        for h in hooks.iter() {
            h.api_exit(&ApiCall::Malloc { bytes }, cid, t1);
        }
    }

    /// Completion time of the busiest stream (the GPU's frontier).
    pub fn gpu_busy_until(&self) -> u64 {
        self.streams.lock().device_tail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::systems;
    use crate::kernel::Dim3;
    use parking_lot::Mutex as PMutex;

    fn ctx() -> CudaContext {
        CudaContext::new(CudaContextConfig::new(systems::tesla_v100()).jitter(0.0))
    }

    fn gemm() -> KernelDesc {
        KernelDesc::new("gemm", Dim3::x(2048), Dim3::x(256))
            .flops(5_000_000_000)
            .dram(10_000_000, 10_000_000)
            .efficiency(0.8, 0.8, 0.25)
    }

    #[derive(Default)]
    struct Recorder {
        api: PMutex<Vec<(String, u64, u64)>>,
        kernels: PMutex<Vec<KernelActivity>>,
        memcpys: PMutex<Vec<MemcpyActivity>>,
    }
    impl GpuHook for Recorder {
        fn api_enter(&self, call: &ApiCall, cid: u64, at: u64) {
            self.api.lock().push((call.api_name().to_owned(), cid, at));
        }
        fn kernel_executed(&self, a: &KernelActivity) {
            self.kernels.lock().push(a.clone());
        }
        fn memcpy_executed(&self, a: &MemcpyActivity) {
            self.memcpys.lock().push(a.clone());
        }
    }

    #[test]
    fn async_launch_returns_before_kernel_finishes() {
        let c = ctx();
        c.launch_kernel(gemm(), StreamId::DEFAULT);
        let host_after_launch = c.clock().now();
        let gpu_tail = c.gpu_busy_until();
        assert!(
            gpu_tail > host_after_launch,
            "kernel must still be running: host {host_after_launch}, gpu {gpu_tail}"
        );
        c.synchronize();
        assert!(c.clock().now() >= gpu_tail);
    }

    #[test]
    fn launch_blocking_serializes() {
        let c = CudaContext::new(
            CudaContextConfig::new(systems::tesla_v100())
                .jitter(0.0)
                .launch_blocking(true),
        );
        c.launch_kernel(gemm(), StreamId::DEFAULT);
        assert_eq!(
            c.clock().now(),
            c.gpu_busy_until(),
            "blocking launch leaves no outstanding GPU work"
        );
    }

    #[test]
    fn kernels_on_one_stream_run_in_order() {
        let c = ctx();
        let rec = Arc::new(Recorder::default());
        c.register_hook(rec.clone());
        c.launch_kernel(gemm(), StreamId::DEFAULT);
        c.launch_kernel(gemm(), StreamId::DEFAULT);
        let ks = rec.kernels.lock();
        assert_eq!(ks.len(), 2);
        assert!(ks[1].start_ns >= ks[0].end_ns, "in-order stream semantics");
    }

    #[test]
    fn kernels_on_two_streams_overlap() {
        let c = ctx();
        let rec = Arc::new(Recorder::default());
        c.register_hook(rec.clone());
        c.launch_kernel(gemm(), StreamId(1));
        c.launch_kernel(gemm(), StreamId(2));
        let ks = rec.kernels.lock();
        assert!(
            ks[1].start_ns < ks[0].end_ns,
            "independent streams must overlap: k0 {:?} k1 {:?}",
            (ks[0].start_ns, ks[0].end_ns),
            (ks[1].start_ns, ks[1].end_ns)
        );
    }

    #[test]
    fn correlation_ids_are_unique_and_delivered() {
        let c = ctx();
        let rec = Arc::new(Recorder::default());
        c.register_hook(rec.clone());
        let a = c.launch_kernel(gemm(), StreamId::DEFAULT);
        let b = c.launch_kernel(gemm(), StreamId::DEFAULT);
        assert_ne!(a, b);
        let ks = rec.kernels.lock();
        assert_eq!(ks[0].correlation_id, a);
        assert_eq!(ks[1].correlation_id, b);
        let api = rec.api.lock();
        assert!(api
            .iter()
            .any(|(n, cid, _)| n == "cudaLaunchKernel" && *cid == a));
    }

    #[test]
    fn tracing_overhead_is_charged_to_cpu() {
        struct Expensive;
        impl GpuHook for Expensive {
            fn launch_overhead_ns(&self) -> u64 {
                150_000
            }
        }
        let c_plain = ctx();
        c_plain.launch_kernel(gemm(), StreamId::DEFAULT);
        let plain = c_plain.clock().now();

        let c_traced = ctx();
        c_traced.register_hook(Arc::new(Expensive));
        c_traced.launch_kernel(gemm(), StreamId::DEFAULT);
        let traced = c_traced.clock().now();
        assert_eq!(traced - plain, 150_000);
    }

    #[test]
    fn replay_inflates_wall_time_not_reported_duration() {
        struct Metrics;
        impl GpuHook for Metrics {
            fn replay_passes(&self, _k: &KernelDesc) -> u32 {
                10
            }
            fn requires_serialization(&self) -> bool {
                true
            }
        }
        // baseline
        let c0 = ctx();
        let rec0 = Arc::new(Recorder::default());
        c0.register_hook(rec0.clone());
        c0.launch_kernel(gemm(), StreamId::DEFAULT);
        c0.synchronize();
        let base_wall = c0.clock().now();
        let base_dur = rec0.kernels.lock()[0].duration_ns();

        let c = ctx();
        let rec = Arc::new(Recorder::default());
        c.register_hook(rec.clone());
        c.register_hook(Arc::new(Metrics));
        c.launch_kernel(gemm(), StreamId::DEFAULT);
        c.synchronize();
        let wall = c.clock().now();
        let dur = rec.kernels.lock()[0].duration_ns();

        assert_eq!(dur, base_dur, "reported duration unchanged by replay");
        assert!(
            wall > base_wall * 5,
            "replay must inflate wall time: {wall} vs {base_wall}"
        );
    }

    #[test]
    fn memcpy_blocks_host_and_scales_with_bytes() {
        let c = ctx();
        let rec = Arc::new(Recorder::default());
        c.register_hook(rec.clone());
        let t0 = c.clock().now();
        c.memcpy(MemcpyKind::HostToDevice, 120_000_000, StreamId::DEFAULT);
        let t1 = c.clock().now();
        // 120 MB over 12 GB/s = 10 ms
        let ms = (t1 - t0) as f64 / 1e6;
        assert!((ms - 10.0).abs() < 0.5, "got {ms} ms");
        assert_eq!(rec.memcpys.lock().len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let c = CudaContext::new(
                CudaContextConfig::new(systems::tesla_v100())
                    .seed(seed)
                    .jitter(0.02),
            );
            for _ in 0..5 {
                c.launch_kernel(gemm(), StreamId::DEFAULT);
            }
            c.synchronize();
            c.clock().now()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn kernels_launched_counter() {
        let c = ctx();
        assert_eq!(c.kernels_launched(), 0);
        c.launch_kernel(gemm(), StreamId::DEFAULT);
        c.launch_kernel(gemm(), StreamId::DEFAULT);
        assert_eq!(c.kernels_launched(), 2);
    }
}
