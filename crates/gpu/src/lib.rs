//! # xsp-gpu — a deterministic virtual-clock GPU simulator
//!
//! The XSP paper profiles ML models on five NVIDIA GPUs via the CUPTI
//! library. This reproduction has no GPU, so this crate implements the
//! *substrate the profilers observe*: a simulated CUDA device with
//!
//! * per-device specifications matching Table VII of the paper
//!   ([`device`]): peak FLOPS, DRAM bandwidth, SM count, architecture
//!   generation (Turing/Volta/Pascal/Maxwell);
//! * in-order [`stream`]s with asynchronous kernel execution on a virtual
//!   GPU timeline, decoupled from the CPU timeline exactly the way real
//!   CUDA launches are;
//! * a roofline-based kernel [`latency`] model with wave quantization,
//!   occupancy-dependent bandwidth saturation and deterministic seeded
//!   jitter;
//! * an analytic achieved-[`occupancy`] model (grid/block shape vs. SM
//!   capacity vs. per-kernel register/shared-memory caps);
//! * `cudaMalloc` calls that cost host time and reach the hooks, so the
//!   profiler records them like any other runtime API call. The paper's
//!   per-layer "alloc mem" (A4) is the `alloc_bytes` tag the framework puts
//!   on each layer span;
//! * an event-[`hook`] interface that the `xsp-cupti` crate subscribes to —
//!   the simulator itself knows nothing about profiling.
//!
//! Everything runs on [`xsp_trace::VirtualClock`] nanoseconds; no wall time
//! is consulted anywhere, which makes every experiment in the repository
//! bit-reproducible.

#![warn(missing_docs)]

pub mod context;
pub mod device;
pub mod hook;
pub mod jitter;
pub mod kernel;
pub mod latency;
pub mod occupancy;
pub mod stream;

pub use context::{CudaContext, CudaContextConfig};
pub use device::{systems, CpuSpec, GpuArchitecture, GpuSpec, System};
pub use hook::{ApiCall, GpuHook, KernelActivity, MemcpyActivity, MemcpyKind};
pub use kernel::{Dim3, KernelDesc};
pub use latency::LatencyModel;
pub use stream::StreamId;
