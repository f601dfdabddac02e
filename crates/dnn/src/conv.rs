//! Convolution: parameters, cuDNN-style algorithm heuristics, and kernel
//! sequence generation.
//!
//! The paper attributes Figure 10's batch-16/32 memory-bound dip to cuDNN's
//! algorithm selection: "For batch sizes less than 16, the cuDNN convolution
//! API uses the IMPLICIT_GEMM algorithm and invokes the GPU kernel
//! `cudnn::detail::implicit_convolve_sgemm`. This kernel has high arithmetic
//! intensity ... For batch sizes greater than 16, the cuDNN convolution API
//! chooses ... IMPLICIT_PRECOMP_GEMM ... `volta_scudnn_128x64_relu_interior_
//! nn_v1`. Although this kernel is compute-bound, for batch sizes less than
//! 64 it has a relatively low arithmetic intensity." The traffic model below
//! reproduces exactly that AI trajectory.

use crate::F32;
use serde::{Deserialize, Serialize};
use xsp_gpu::{Dim3, GpuArchitecture, KernelDesc};

/// Parameters of a 2-D convolution in NCHW layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvParams {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels (filters).
    pub out_c: usize,
    /// Filter height.
    pub kernel_h: usize,
    /// Filter width.
    pub kernel_w: usize,
    /// Stride (same in both dims).
    pub stride: usize,
    /// Zero padding (same in both dims).
    pub pad: usize,
}

impl ConvParams {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel_w) / self.stride + 1
    }

    /// Direct-convolution flop count: 2·N·K·H'·W'·C·R·S.
    pub fn direct_flops(&self) -> u64 {
        2 * self.batch as u64
            * self.out_c as u64
            * self.out_h() as u64
            * self.out_w() as u64
            * self.in_c as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
    }

    /// Input tensor bytes (f32).
    pub fn input_bytes(&self) -> u64 {
        self.batch as u64 * self.in_c as u64 * self.in_h as u64 * self.in_w as u64 * F32
    }

    /// Weight tensor bytes (f32).
    pub fn weight_bytes(&self) -> u64 {
        self.out_c as u64 * self.in_c as u64 * self.kernel_h as u64 * self.kernel_w as u64 * F32
    }

    /// Output tensor bytes (f32).
    pub fn output_bytes(&self) -> u64 {
        self.batch as u64 * self.out_c as u64 * self.out_h() as u64 * self.out_w() as u64 * F32
    }

    /// GEMM view of the implicit matrix multiply: (M, N, K) =
    /// (K_filters, N·H'·W', C·R·S).
    pub fn gemm_dims(&self) -> (u64, u64, u64) {
        (
            self.out_c as u64,
            self.batch as u64 * self.out_h() as u64 * self.out_w() as u64,
            self.in_c as u64 * self.kernel_h as u64 * self.kernel_w as u64,
        )
    }
}

/// cuDNN-style convolution algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvAlgo {
    /// `CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_GEMM`: fused, cache-friendly,
    /// modest peak efficiency. Chosen below batch 16.
    ImplicitGemm,
    /// `CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_PRECOMP_GEMM`: index-precomputed
    /// tiled GEMM, the workhorse at batch ≥ 16.
    ImplicitPrecompGemm,
    /// Transform-domain convolution executed as a complex GEMM
    /// (`*_cgemm_*` kernels) — picked for late 3×3 stride-1 layers with
    /// small spatial extent at large batch.
    WinogradCgemm,
}

/// The batch size at which cuDNN's heuristic switches from `IMPLICIT_GEMM`
/// to `IMPLICIT_PRECOMP_GEMM` (§III-D3).
pub const PRECOMP_GEMM_BATCH_THRESHOLD: usize = 16;

/// Chooses the convolution algorithm the way the paper observed cuDNN doing
/// it. The heuristic is architecture-aware: transform-domain cgemm kernels
/// are only dispatched on generations with Volta-optimized kernels.
pub fn choose_conv_algo(p: &ConvParams, arch: GpuArchitecture) -> ConvAlgo {
    if p.batch < PRECOMP_GEMM_BATCH_THRESHOLD {
        return ConvAlgo::ImplicitGemm;
    }
    // Late-stage 3x3 stride-1 layers with small spatial extent and wide
    // channels amortize the transform cost: cgemm wins (paper Table III,
    // layers 208/221: 3x3 512-channel 7x7-spatial at batch 256).
    if arch.has_volta_optimized_kernels()
        && p.kernel_h == 3
        && p.kernel_w == 3
        && p.stride == 1
        && p.in_h <= 7
        && p.in_c >= 512
        && p.batch >= 128
    {
        return ConvAlgo::WinogradCgemm;
    }
    ConvAlgo::ImplicitPrecompGemm
}

/// Flops the cgemm path actually executes relative to direct convolution
/// (complex arithmetic overhead; Table III: 77.42 vs 59.20 Gflops on
/// equal-shaped layers ⇒ ≈1.31×).
const CGEMM_FLOP_FACTOR: f64 = 1.31;

/// DRAM read/write factors for `IMPLICIT_PRECOMP_GEMM` as a function of
/// batch: small batches re-fetch tiles with little reuse (the paper's
/// "relatively low arithmetic intensity" below batch 64); large batches
/// amortize. Calibrated against Table VI traffic totals.
fn precomp_traffic_factor(batch: usize) -> f64 {
    // Below ~64 the kernel's N-tiles are too few to amortize K-slab
    // fetches, so every M-tile row re-reads inputs (~3.5x the tensor
    // footprint) — the paper's "relatively low arithmetic intensity"
    // regime for batches under 64. Above that, L2 tile reuse kicks in and
    // traffic drops to ~0.5x. A sharp logistic models the transition the
    // paper observes between batch 32 and 64.
    let b = batch.max(16) as f64;
    (0.52 + 3.8 / (1.0 + (b / 47.0).powi(6))).clamp(0.40, 4.4)
}

/// Tile selection for the scudnn kernels: wide-K, wide-M layers get the
/// 128×128 tile, everything else 128×64 (Table IV: 34× `128x64` vs 4×
/// `128x128` for ResNet-50).
fn scudnn_tile(p: &ConvParams) -> (u64, u64) {
    let (m, _n, k) = p.gemm_dims();
    if m >= 256 && k >= 1024 {
        (128, 128)
    } else {
        (128, 64)
    }
}

fn conv_grid(p: &ConvParams, tile_m: u64, tile_n: u64) -> Dim3 {
    let (m, n, _) = p.gemm_dims();
    let gx = n.div_ceil(tile_n).min(u32::MAX as u64) as u32;
    let gy = m.div_ceil(tile_m).min(u32::MAX as u64) as u32;
    Dim3::new(gx.max(1), gy.max(1), 1)
}

/// Builds the kernel sequence cuDNN would launch for a convolution layer.
///
/// Returns the chosen algorithm and the descriptors in launch order. The
/// first convolution of a network (few input channels) additionally runs the
/// layout/offset preparation kernels the paper shows in Figure 1
/// (`ShuffleTensor`, `OffsetComp`).
pub fn conv2d_kernels(p: &ConvParams, arch: GpuArchitecture) -> (ConvAlgo, Vec<KernelDesc>) {
    let algo = choose_conv_algo(p, arch);
    let prefix = arch.cudnn_kernel_prefix();
    let mut kernels = Vec::new();

    // Input-layer layout preparation (Figure 1: 3 kernels on the first Conv).
    if p.in_c <= 4 && algo != ConvAlgo::ImplicitGemm {
        let in_bytes = p.input_bytes();
        kernels.push(
            KernelDesc::new(
                "cudnn::detail::ShuffleTensor",
                Dim3::x((in_bytes / 4 / 1024).max(1) as u32),
                Dim3::x(256),
            )
            .dram(in_bytes, in_bytes)
            .efficiency(0.2, 0.75, 0.5)
            .fixed_overhead(3_000),
        );
        kernels.push(
            KernelDesc::new("cudnn::detail::OffsetComp", Dim3::x(8), Dim3::x(128))
                .dram(0, 65_536)
                .efficiency(0.1, 0.3, 0.25)
                .fixed_overhead(2_500),
        );
    }

    let flops = p.direct_flops();
    match algo {
        ConvAlgo::ImplicitGemm => {
            // Fused kernel, strong cache reuse: high arithmetic intensity.
            // At small batch the natural tile grid underfills the device, so
            // the kernel splits the reduction (K) dimension across extra
            // blocks — real implicit-gemm kernels do the same to keep SMs
            // busy at batch 1.
            let reads = (p.input_bytes() as f64 * 0.10) as u64 + p.weight_bytes();
            let writes = (p.output_bytes() as f64 * 0.15) as u64;
            let mut grid = conv_grid(p, 64, 64);
            let natural_warps = grid.count() * 4; // 128-thread blocks
            let split_k = (2048 / natural_warps.max(1)).clamp(1, 32) as u32;
            grid.z = split_k;
            kernels.push(
                KernelDesc::new("cudnn::detail::implicit_convolve_sgemm", grid, Dim3::x(128))
                    .flops(flops)
                    .dram(reads, writes)
                    .efficiency(0.52, 0.70, 0.35)
                    .fixed_overhead(4_000),
            );
        }
        ConvAlgo::ImplicitPrecompGemm => {
            let (tm, tn) = scudnn_tile(p);
            let f = precomp_traffic_factor(p.batch);
            let reads = (p.input_bytes() as f64 * f * 0.55) as u64 + p.weight_bytes();
            let writes = (p.output_bytes() as f64 * f * 0.62) as u64;
            let name = format!("{prefix}_scudnn_{tm}x{tn}_relu_interior_nn_v1");
            let (ceff, occ) = if tn == 128 {
                (0.86, 0.16)
            } else {
                (0.82, 0.25)
            };
            kernels.push(
                KernelDesc::new(name, conv_grid(p, tm, tn), Dim3::x(256))
                    .flops(flops)
                    .dram(reads, writes)
                    .efficiency(ceff, 0.72, occ)
                    .fixed_overhead(4_500),
            );
        }
        ConvAlgo::WinogradCgemm => {
            // Transform in, complex GEMM, transform out. The cgemm carries
            // the bulk of the time and the (inflated) flop count.
            let in_bytes = p.input_bytes();
            let out_bytes = p.output_bytes();
            kernels.push(
                KernelDesc::new(
                    format!("{prefix}_fft2d_r2c_16x16"),
                    Dim3::x((in_bytes / 4 / 2048).max(1) as u32),
                    Dim3::x(256),
                )
                .flops(in_bytes / 2)
                .dram(in_bytes / 3, in_bytes / 3)
                .efficiency(0.35, 0.70, 0.5)
                .fixed_overhead(3_500),
            );
            let cgemm_flops = (flops as f64 * CGEMM_FLOP_FACTOR) as u64;
            let reads = (in_bytes as f64 * 0.28) as u64 + p.weight_bytes() * 2;
            let writes = (out_bytes as f64 * 0.30) as u64;
            kernels.push(
                KernelDesc::new(
                    format!("{prefix}_cgemm_32x32_tn"),
                    conv_grid(p, 32, 32),
                    Dim3::x(256),
                )
                .flops(cgemm_flops)
                .dram(reads, writes)
                .efficiency(0.84, 0.72, 0.125)
                .fixed_overhead(4_500),
            );
            kernels.push(
                KernelDesc::new(
                    format!("{prefix}_fft2d_c2r_16x16"),
                    Dim3::x((out_bytes / 4 / 2048).max(1) as u32),
                    Dim3::x(256),
                )
                .flops(out_bytes / 2)
                .dram(out_bytes / 3, out_bytes / 3)
                .efficiency(0.35, 0.70, 0.5)
                .fixed_overhead(3_500),
            );
        }
    }
    (algo, kernels)
}

/// Builds the kernel for a depthwise convolution
/// (`DepthwiseConv2dNative`): one filter per channel, memory-bound on every
/// architecture.
pub fn depthwise_conv2d_kernels(p: &ConvParams, _arch: GpuArchitecture) -> Vec<KernelDesc> {
    // Depthwise flops: 2·N·C·H'·W'·R·S (no cross-channel reduction).
    let flops = 2
        * p.batch as u64
        * p.in_c as u64
        * p.out_h() as u64
        * p.out_w() as u64
        * p.kernel_h as u64
        * p.kernel_w as u64;
    let reads = p.input_bytes() + p.in_c as u64 * (p.kernel_h * p.kernel_w) as u64 * F32;
    let writes = p.batch as u64 * p.in_c as u64 * p.out_h() as u64 * p.out_w() as u64 * F32;
    let elements = writes / F32;
    vec![KernelDesc::new(
        "cudnn::detail::depthwise_fprop_direct",
        Dim3::x((elements / 512).max(1).min(u32::MAX as u64) as u32),
        Dim3::x(128),
    )
    .flops(flops)
    .dram(reads, writes)
    .efficiency(0.30, 0.62, 0.5)
    .fixed_overhead(3_500)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First conv of ResNet-50: 224×224×3 → 112×112×64, 7×7/2.
    fn first_conv(batch: usize) -> ConvParams {
        ConvParams {
            batch,
            in_c: 3,
            in_h: 224,
            in_w: 224,
            out_c: 64,
            kernel_h: 7,
            kernel_w: 7,
            stride: 2,
            pad: 3,
        }
    }

    /// Late 3×3 512-channel conv at 7×7 spatial (paper layers 208/221).
    fn late_3x3(batch: usize) -> ConvParams {
        ConvParams {
            batch,
            in_c: 512,
            in_h: 7,
            in_w: 7,
            out_c: 512,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn output_shape_math() {
        let p = first_conv(1);
        assert_eq!(p.out_h(), 112);
        assert_eq!(p.out_w(), 112);
        let q = late_3x3(1);
        assert_eq!(q.out_h(), 7);
    }

    #[test]
    fn direct_flops_formula() {
        // Paper layer 3 (first conv) at batch 256 executes ≈62.9 Gflops.
        let p = first_conv(256);
        let gflops = p.direct_flops() as f64 / 1e9;
        assert!(
            (gflops - 62.9).abs() / 62.9 < 0.05,
            "first conv: {gflops} Gflops"
        );
        // Paper layers 195 etc. (equal shape to 208 without cgemm) ≈59.2.
        let q = late_3x3(256);
        let gflops = q.direct_flops() as f64 / 1e9;
        assert!(
            (gflops - 59.2).abs() / 59.2 < 0.05,
            "late 3x3: {gflops} Gflops"
        );
    }

    #[test]
    fn algorithm_switches_at_batch_16() {
        let arch = GpuArchitecture::Volta;
        for b in [1, 2, 4, 8] {
            assert_eq!(
                choose_conv_algo(&first_conv(b), arch),
                ConvAlgo::ImplicitGemm,
                "batch {b}"
            );
        }
        for b in [16, 32, 64, 256] {
            assert_eq!(
                choose_conv_algo(&first_conv(b), arch),
                ConvAlgo::ImplicitPrecompGemm,
                "batch {b}"
            );
        }
    }

    #[test]
    fn cgemm_for_late_3x3_at_large_batch_on_volta() {
        assert_eq!(
            choose_conv_algo(&late_3x3(256), GpuArchitecture::Volta),
            ConvAlgo::WinogradCgemm
        );
        assert_eq!(
            choose_conv_algo(&late_3x3(64), GpuArchitecture::Volta),
            ConvAlgo::ImplicitPrecompGemm,
            "batch 64 too small for the transform to amortize"
        );
        assert_eq!(
            choose_conv_algo(&late_3x3(256), GpuArchitecture::Pascal),
            ConvAlgo::ImplicitPrecompGemm,
            "no cgemm kernels before Volta"
        );
    }

    #[test]
    fn kernel_names_follow_architecture() {
        let (_, volta) = conv2d_kernels(&late_3x3(32), GpuArchitecture::Volta);
        assert!(volta.iter().any(|k| k.name.starts_with("volta_scudnn")));
        let (_, pascal) = conv2d_kernels(&late_3x3(32), GpuArchitecture::Pascal);
        assert!(pascal.iter().any(|k| k.name.starts_with("maxwell_scudnn")));
        let (_, turing) = conv2d_kernels(&late_3x3(32), GpuArchitecture::Turing);
        assert!(
            turing.iter().any(|k| k.name.starts_with("volta_scudnn")),
            "Turing reuses Volta-optimized kernels (§IV-C)"
        );
    }

    #[test]
    fn first_conv_runs_three_kernels_at_batch_256() {
        // Figure 1: ShuffleTensor, OffsetComp, VoltaCUDNN_128x64.
        let (algo, ks) = conv2d_kernels(&first_conv(256), GpuArchitecture::Volta);
        assert_eq!(algo, ConvAlgo::ImplicitPrecompGemm);
        let names: Vec<&str> = ks.iter().map(|k| &*k.name).collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(names[0].contains("ShuffleTensor"));
        assert!(names[1].contains("OffsetComp"));
        assert!(names[2].contains("scudnn_128x64"));
    }

    #[test]
    fn interior_conv_runs_one_kernel() {
        let (_, ks) = conv2d_kernels(&late_3x3(32), GpuArchitecture::Volta);
        assert_eq!(ks.len(), 1);
    }

    #[test]
    fn implicit_gemm_has_higher_arithmetic_intensity_than_precomp_at_16() {
        let (_, small) = conv2d_kernels(&late_3x3(8), GpuArchitecture::Volta);
        let (_, big) = conv2d_kernels(&late_3x3(16), GpuArchitecture::Volta);
        let ai = |ks: &[KernelDesc]| {
            let f: u64 = ks.iter().map(|k| k.flops).sum();
            let b: u64 = ks.iter().map(|k| k.dram_total()).sum();
            f as f64 / b as f64
        };
        // Per-sample traffic: implicit gemm is far leaner.
        let ai_small = ai(&small) / 8.0;
        let ai_big = ai(&big) / 16.0;
        let _ = (ai_small, ai_big);
        assert!(
            ai(&small) * 2.0 > ai(&big),
            "AI dips when the algorithm switches: {} vs {}",
            ai(&small),
            ai(&big)
        );
    }

    #[test]
    fn precomp_traffic_factor_declines_with_batch() {
        let f16 = precomp_traffic_factor(16);
        let f32_ = precomp_traffic_factor(32);
        let f64_ = precomp_traffic_factor(64);
        let f256 = precomp_traffic_factor(256);
        assert!(
            f16 > f32_ && f32_ > f64_ && f64_ > f256,
            "{f16} {f32_} {f64_} {f256}"
        );
        // batch 16 and 32 sit on the high plateau; the cliff is before 64
        assert!(
            f32_ > 3.0,
            "batch-32 must stay in the re-fetch regime: {f32_}"
        );
        assert!(f64_ < 1.5, "batch-64 must be past the cliff: {f64_}");
        // the batch-16 point re-fetches >3x more per byte than batch 256 —
        // this drives Figure 10's memory-bound dip
        assert!(f16 / f256 > 3.0);
    }

    #[test]
    fn cgemm_flops_inflated_31_percent() {
        let (algo, ks) = conv2d_kernels(&late_3x3(256), GpuArchitecture::Volta);
        assert_eq!(algo, ConvAlgo::WinogradCgemm);
        let cgemm = ks.iter().find(|k| k.name.contains("cgemm")).unwrap();
        let expect = late_3x3(256).direct_flops() as f64 * 1.31;
        assert!((cgemm.flops as f64 - expect).abs() / expect < 0.01);
        // Table III: cgemm layers report ≈77.4 Gflops at batch 256.
        let gflops = cgemm.flops as f64 / 1e9;
        assert!((gflops - 77.4).abs() / 77.4 < 0.05, "got {gflops}");
    }

    #[test]
    fn depthwise_is_memory_bound_shaped() {
        let p = ConvParams {
            batch: 64,
            in_c: 128,
            in_h: 56,
            in_w: 56,
            out_c: 128,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad: 1,
        };
        let ks = depthwise_conv2d_kernels(&p, GpuArchitecture::Volta);
        assert_eq!(ks.len(), 1);
        let k = &ks[0];
        // Arithmetic intensity far below V100's ideal 17.44.
        let ai = k.arithmetic_intensity().unwrap();
        assert!(ai < 10.0, "depthwise AI {ai}");
    }

    #[test]
    fn tile_selection() {
        // wide-K wide-M layer -> 128x128
        let wide = ConvParams {
            batch: 256,
            in_c: 1024,
            in_h: 14,
            in_w: 14,
            out_c: 256,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            pad: 0,
        };
        let (_, ks) = conv2d_kernels(&wide, GpuArchitecture::Volta);
        assert!(ks[0].name.contains("128x128"), "{}", ks[0].name);
        // narrow layer -> 128x64
        let narrow = first_conv(256);
        let (_, ks) = conv2d_kernels(&narrow, GpuArchitecture::Volta);
        assert!(ks.last().unwrap().name.contains("128x64"));
    }
}
