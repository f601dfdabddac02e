//! Activity records: buffered device- and runtime-side events.
//!
//! CUPTI delivers activity records asynchronously into caller-provided
//! buffers; here they accumulate in memory and are drained by the profiler
//! facade. Each record carries the `correlation_id` CUPTI uses to link a
//! device activity to the runtime API call that created it.

use std::sync::Arc;
use xsp_gpu::{KernelActivity, MemcpyActivity};

/// A runtime-API interval observed by the callback interface.
#[derive(Debug, Clone)]
pub struct RuntimeApiRecord {
    /// CUDA runtime function name (`cudaLaunchKernel`, ...).
    pub api_name: &'static str,
    /// Kernel name for launch calls.
    pub kernel_name: Option<Arc<str>>,
    /// Correlation id shared with the resulting device activity.
    pub correlation_id: u64,
    /// API enter time, ns.
    pub start_ns: u64,
    /// API exit time, ns.
    pub end_ns: u64,
}

/// A buffered activity record.
#[derive(Debug, Clone)]
pub enum ActivityRecord {
    /// Device-side kernel execution.
    Kernel(KernelActivity),
    /// Device-side memory copy.
    Memcpy(MemcpyActivity),
    /// Host-side runtime API call.
    Runtime(RuntimeApiRecord),
}

impl ActivityRecord {
    /// The record's correlation id.
    pub fn correlation_id(&self) -> u64 {
        match self {
            ActivityRecord::Kernel(k) => k.correlation_id,
            ActivityRecord::Memcpy(m) => m.correlation_id,
            ActivityRecord::Runtime(r) => r.correlation_id,
        }
    }

    /// The record's `[start, end]` window.
    pub fn window(&self) -> (u64, u64) {
        match self {
            ActivityRecord::Kernel(k) => (k.start_ns, k.end_ns),
            ActivityRecord::Memcpy(m) => (m.start_ns, m.end_ns),
            ActivityRecord::Runtime(r) => (r.start_ns, r.end_ns),
        }
    }

    /// Short kind label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ActivityRecord::Kernel(_) => "kernel",
            ActivityRecord::Memcpy(_) => "memcpy",
            ActivityRecord::Runtime(_) => "runtime",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsp_gpu::{Dim3, KernelDesc, MemcpyKind, StreamId};

    fn kernel_record() -> ActivityRecord {
        ActivityRecord::Kernel(KernelActivity {
            correlation_id: 3,
            name: "k".into(),
            grid: Dim3::x(1),
            block: Dim3::x(32),
            stream: StreamId::DEFAULT,
            start_ns: 10,
            end_ns: 20,
            desc: KernelDesc::new("k", Dim3::x(1), Dim3::x(32)),
            occupancy: 0.5,
            memory_bound: false,
        })
    }

    #[test]
    fn accessors() {
        let k = kernel_record();
        assert_eq!(k.correlation_id(), 3);
        assert_eq!(k.window(), (10, 20));
        assert_eq!(k.kind(), "kernel");

        let m = ActivityRecord::Memcpy(MemcpyActivity {
            correlation_id: 4,
            kind: MemcpyKind::HostToDevice,
            bytes: 100,
            stream: StreamId::DEFAULT,
            start_ns: 0,
            end_ns: 5,
        });
        assert_eq!(m.correlation_id(), 4);
        assert_eq!(m.kind(), "memcpy");

        let r = ActivityRecord::Runtime(RuntimeApiRecord {
            api_name: "cudaLaunchKernel",
            kernel_name: Some("k".into()),
            correlation_id: 3,
            start_ns: 1,
            end_ns: 2,
        });
        assert_eq!(r.window(), (1, 2));
        assert_eq!(r.kind(), "runtime");
    }
}
