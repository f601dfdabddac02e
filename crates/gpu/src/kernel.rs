//! Kernel descriptors: the unit of work submitted to the simulated GPU.
//!
//! A [`KernelDesc`] carries exactly the ground-truth quantities the paper's
//! GPU-level profiling exposes — `flop_count_sp`, `dram_read_bytes`,
//! `dram_write_bytes`, grid/block shape — plus the efficiency envelope the
//! latency model needs. Libraries (the cuDNN/Eigen analogues in `xsp-dnn`)
//! construct descriptors; the simulator executes them.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// CUDA-style 3-component launch dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// Creates a 3-D dimension.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        Self { x, y, z }
    }

    /// A 1-D dimension.
    pub const fn x(x: u32) -> Self {
        Self { x, y: 1, z: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl std::fmt::Display for Dim3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{},{}]", self.x, self.y, self.z)
    }
}

/// Description of a GPU kernel to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel (mangled/demangled) name, e.g.
    /// `volta_scudnn_128x64_relu_interior_nn_v1`. Shared: the launch call,
    /// the activity record and the profiler's buffers all hold the one
    /// string the library lowering built.
    pub name: Arc<str>,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Single-precision flops the kernel executes.
    pub flops: u64,
    /// Bytes read from DRAM into L2.
    pub dram_read: u64,
    /// Bytes written from L2 to DRAM.
    pub dram_write: u64,
    /// Fraction of peak FLOPS this kernel attains when the machine is full
    /// (code quality: tuned library GEMMs ≈ 0.75–0.9, naive kernels lower).
    pub compute_efficiency: f64,
    /// Fraction of peak DRAM bandwidth attainable with saturating occupancy.
    pub memory_efficiency: f64,
    /// Maximum achieved occupancy (register/shared-memory limited), `(0,1]`.
    pub occupancy_cap: f64,
    /// Fixed per-kernel overhead added to the roofline time, ns (scheduling,
    /// tail, instruction issue ramp).
    pub fixed_overhead_ns: u64,
}

impl KernelDesc {
    /// A descriptor with neutral efficiency defaults; libraries override the
    /// envelope fields.
    pub fn new(name: impl Into<Arc<str>>, grid: Dim3, block: Dim3) -> Self {
        Self {
            name: name.into(),
            grid,
            block,
            flops: 0,
            dram_read: 0,
            dram_write: 0,
            compute_efficiency: 0.5,
            memory_efficiency: 0.6,
            occupancy_cap: 0.5,
            fixed_overhead_ns: 2_000,
        }
    }

    /// Builder: sets flop count.
    pub fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Builder: sets DRAM traffic.
    pub fn dram(mut self, read: u64, write: u64) -> Self {
        self.dram_read = read;
        self.dram_write = write;
        self
    }

    /// Builder: sets the efficiency envelope.
    pub fn efficiency(mut self, compute: f64, memory: f64, occupancy_cap: f64) -> Self {
        assert!(compute > 0.0 && compute <= 1.0, "compute eff {compute}");
        assert!(memory > 0.0 && memory <= 1.0, "memory eff {memory}");
        assert!(
            occupancy_cap > 0.0 && occupancy_cap <= 1.0,
            "occupancy cap {occupancy_cap}"
        );
        self.compute_efficiency = compute;
        self.memory_efficiency = memory;
        self.occupancy_cap = occupancy_cap;
        self
    }

    /// Builder: sets the fixed overhead.
    pub fn fixed_overhead(mut self, ns: u64) -> Self {
        self.fixed_overhead_ns = ns;
        self
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Total warps launched (32 threads per warp).
    pub fn total_warps(&self) -> u64 {
        self.grid.count() * self.block.count().div_ceil(32)
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_total(&self) -> u64 {
        self.dram_read + self.dram_write
    }

    /// Arithmetic intensity in flops/byte; `None` when the kernel touches no
    /// DRAM (fully cache-resident).
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        let bytes = self.dram_total();
        if bytes == 0 {
            None
        } else {
            Some(self.flops as f64 / bytes as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_count() {
        assert_eq!(Dim3::new(2, 3, 4).count(), 24);
        assert_eq!(Dim3::x(7).count(), 7);
        assert_eq!(Dim3::x(7).to_string(), "[7,1,1]");
    }

    #[test]
    fn warp_rounding() {
        let k = KernelDesc::new("k", Dim3::x(10), Dim3::x(33));
        // 33 threads -> 2 warps per block
        assert_eq!(k.total_warps(), 20);
        assert_eq!(k.total_threads(), 330);
    }

    #[test]
    fn arithmetic_intensity() {
        let k = KernelDesc::new("k", Dim3::x(1), Dim3::x(32))
            .flops(1000)
            .dram(300, 200);
        assert_eq!(k.arithmetic_intensity(), Some(2.0));
        let cached = KernelDesc::new("c", Dim3::x(1), Dim3::x(32)).flops(10);
        assert_eq!(cached.arithmetic_intensity(), None);
    }

    #[test]
    #[should_panic(expected = "occupancy cap")]
    fn zero_occupancy_cap_rejected() {
        KernelDesc::new("k", Dim3::x(1), Dim3::x(32)).efficiency(0.5, 0.5, 0.0);
    }

    #[test]
    fn builder_chain() {
        let k = KernelDesc::new("k", Dim3::x(4), Dim3::x(256))
            .flops(1_000_000)
            .dram(10, 20)
            .efficiency(0.8, 0.7, 0.25)
            .fixed_overhead(500);
        assert_eq!(k.flops, 1_000_000);
        assert_eq!(k.dram_total(), 30);
        assert_eq!(k.compute_efficiency, 0.8);
        assert_eq!(k.fixed_overhead_ns, 500);
    }
}
