//! # xsp-cupti — a CUPTI-like GPU profiling interface
//!
//! NVIDIA's CUPTI library is the foundation of `nvprof` and Nsight and of
//! XSP's GPU kernel-level profiling (§III-B-3). It exposes three
//! capabilities, all reproduced here against the simulated GPU in
//! [`xsp_gpu`]:
//!
//! * **Callback API** — interposition on CUDA runtime API calls
//!   (`cudaLaunchKernel`, `cudaMemcpy`, ...). XSP uses the callback API to
//!   capture the *launch span* of each asynchronous kernel.
//! * **Activity API** — asynchronous records of device-side activities
//!   (kernel executions, memory copies) carrying a `correlation_id` that
//!   links them to the originating API call. XSP uses activity records as
//!   *execution spans*.
//! * **Metric API** — hardware-counter collection (`flop_count_sp`,
//!   `dram_read_bytes`, `dram_write_bytes`, `achieved_occupancy`). Counters
//!   are scarce, so kernels are *replayed* until all requested metrics are
//!   gathered; memory metrics are collected per DRAM partition and slow
//!   execution down by up to ~100× (§III-C), while the *reported* kernel
//!   latency stays that of a clean execution.
//!
//! The [`Cupti`] struct implements [`xsp_gpu::GpuHook`] and buffers records;
//! [`flush_to_tracer`](Cupti::flush_to_tracer) converts records into
//! [`xsp_trace`] spans — the "offline conversion" path of §III-A.

#![warn(missing_docs)]

pub mod activity;
pub mod metrics;
pub mod profiler;

pub use activity::{ActivityRecord, RuntimeApiRecord};
pub use metrics::{replay_passes_for, MetricKind};
pub use profiler::Cupti;
