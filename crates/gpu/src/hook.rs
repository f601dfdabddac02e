//! Event hooks: the seam between the simulator and its profilers.
//!
//! Real CUPTI interposes on the CUDA runtime (callback API) and collects
//! device-side records (activity API). The simulator exposes the same seam:
//! a [`GpuHook`] registered on a context observes API enter/exit events and
//! completed kernel/memcpy activities, and can *charge overhead* back to the
//! timeline — per-launch tracing cost and metric-collection replay passes.
//! The `xsp-cupti` crate is the only production implementor; tests install
//! recording hooks directly.

use crate::kernel::{Dim3, KernelDesc};
use crate::stream::StreamId;
use std::sync::Arc;

/// A CUDA-runtime-API call site observed by the callback interface.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiCall {
    /// `cudaLaunchKernel` with the kernel's name.
    LaunchKernel {
        /// Name of the launched kernel.
        name: Arc<str>,
    },
    /// `cudaMemcpy`-family call.
    Memcpy {
        /// Direction of the copy.
        kind: MemcpyKind,
        /// Bytes transferred.
        bytes: u64,
    },
    /// `cudaDeviceSynchronize`.
    DeviceSynchronize,
    /// `cudaStreamSynchronize`.
    StreamSynchronize {
        /// Stream being synchronized.
        stream: StreamId,
    },
    /// `cudaMalloc`.
    Malloc {
        /// Bytes requested.
        bytes: u64,
    },
}

impl ApiCall {
    /// The CUDA runtime function name for this call site.
    pub fn api_name(&self) -> &'static str {
        match self {
            ApiCall::LaunchKernel { .. } => "cudaLaunchKernel",
            ApiCall::Memcpy { .. } => "cudaMemcpy",
            ApiCall::DeviceSynchronize => "cudaDeviceSynchronize",
            ApiCall::StreamSynchronize { .. } => "cudaStreamSynchronize",
            ApiCall::Malloc { .. } => "cudaMalloc",
        }
    }
}

/// Direction of a memory copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemcpyKind {
    /// Host to device.
    HostToDevice,
    /// Device to host.
    DeviceToHost,
    /// Device to device.
    DeviceToDevice,
}

/// A completed kernel execution on the GPU timeline (CUPTI activity-API
/// analogue of `CUpti_ActivityKernel`).
#[derive(Debug, Clone)]
pub struct KernelActivity {
    /// Correlation id shared with the launching API call.
    pub correlation_id: u64,
    /// Kernel name.
    pub name: Arc<str>,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Stream the kernel ran on.
    pub stream: StreamId,
    /// GPU-timeline start, ns.
    pub start_ns: u64,
    /// GPU-timeline end, ns.
    pub end_ns: u64,
    /// Ground-truth descriptor (metric sources read counters from it).
    pub desc: KernelDesc,
    /// Achieved occupancy for this launch.
    pub occupancy: f64,
    /// Whether the roofline memory leg dominated.
    pub memory_bound: bool,
}

impl KernelActivity {
    /// Kernel duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A completed memory copy on the GPU timeline.
#[derive(Debug, Clone)]
pub struct MemcpyActivity {
    /// Correlation id shared with the API call.
    pub correlation_id: u64,
    /// Direction.
    pub kind: MemcpyKind,
    /// Bytes transferred.
    pub bytes: u64,
    /// Stream used.
    pub stream: StreamId,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Observer interface implemented by profiling front-ends.
///
/// All methods have no-op defaults so implementors subscribe only to what
/// they need.
pub trait GpuHook: Send + Sync {
    /// Called when a runtime API call begins.
    fn api_enter(&self, _call: &ApiCall, _correlation_id: u64, _at_ns: u64) {}

    /// Called when a runtime API call returns.
    fn api_exit(&self, _call: &ApiCall, _correlation_id: u64, _at_ns: u64) {}

    /// Called after a kernel's execution window is placed on the GPU
    /// timeline.
    fn kernel_executed(&self, _activity: &KernelActivity) {}

    /// Called after a memcpy's window is placed on the GPU timeline.
    fn memcpy_executed(&self, _activity: &MemcpyActivity) {}

    /// Extra CPU-side cost charged per traced kernel launch, ns. This is the
    /// G-level profiling overhead of the paper's leveled experimentation
    /// (activity-record bookkeeping in the driver).
    fn launch_overhead_ns(&self) -> u64 {
        0
    }

    /// Number of times the kernel must execute so the profiler can fill its
    /// hardware counters (1 = no metric collection). Replay passes inflate
    /// wall-clock occupancy of the GPU but not the reported kernel duration,
    /// which is how "GPU memory metrics ... can slow down execution by over
    /// 100×" (§III-C) coexists with accurate per-kernel latencies.
    fn replay_passes(&self, _kernel: &KernelDesc) -> u32 {
        1
    }

    /// Whether this hook requires kernel launches to be serialized with the
    /// host (metric collection does; plain activity tracing does not).
    fn requires_serialization(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_names() {
        assert_eq!(
            ApiCall::LaunchKernel { name: "k".into() }.api_name(),
            "cudaLaunchKernel"
        );
        assert_eq!(
            ApiCall::DeviceSynchronize.api_name(),
            "cudaDeviceSynchronize"
        );
        assert_eq!(
            ApiCall::Memcpy {
                kind: MemcpyKind::HostToDevice,
                bytes: 4
            }
            .api_name(),
            "cudaMemcpy"
        );
    }

    struct Defaults;
    impl GpuHook for Defaults {}

    #[test]
    fn default_hook_is_free() {
        let h = Defaults;
        assert_eq!(h.launch_overhead_ns(), 0);
        assert_eq!(
            h.replay_passes(&KernelDesc::new("k", Dim3::x(1), Dim3::x(32))),
            1
        );
        assert!(!h.requires_serialization());
    }
}
