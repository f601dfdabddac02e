//! Property tests for the GPU simulator: latency-model monotonicity,
//! occupancy bounds, stream ordering, and clock monotonicity.

use proptest::prelude::*;
use xsp_gpu::occupancy::achieved_occupancy;
use xsp_gpu::stream::StreamSet;
use xsp_gpu::{systems, CudaContext, CudaContextConfig, Dim3, KernelDesc, LatencyModel, StreamId};

fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (
        1u32..20000,
        1u32..1024,
        0u64..50_000_000_000,
        0u64..2_000_000_000,
        0u64..2_000_000_000,
        0.05f64..1.0,
        0.05f64..1.0,
        0.05f64..1.0,
    )
        .prop_map(|(grid, block, flops, r, w, ce, me, occ)| {
            KernelDesc::new("k", Dim3::x(grid), Dim3::x(block))
                .flops(flops)
                .dram(r, w)
                .efficiency(ce, me, occ)
        })
}

proptest! {
    #[test]
    fn occupancy_always_in_unit_range(k in arb_kernel()) {
        for sys in systems::all() {
            let occ = achieved_occupancy(&k, &sys.gpu);
            prop_assert!((0.0..=1.0).contains(&occ.achieved), "{}", occ.achieved);
            prop_assert!(occ.waves > 0.0);
            prop_assert!(occ.achieved <= k.occupancy_cap + 1e-12);
        }
    }

    #[test]
    fn latency_is_positive_and_deterministic(k in arb_kernel()) {
        let m = LatencyModel;
        for sys in systems::all() {
            let t1 = m.timing(&k, &sys.gpu);
            let t2 = m.timing(&k, &sys.gpu);
            prop_assert!(t1.duration_ns >= 1);
            prop_assert_eq!(t1.duration_ns, t2.duration_ns);
            prop_assert_eq!(t1.memory_bound, t1.memory_ns > t1.compute_ns);
        }
    }

    #[test]
    fn latency_monotone_in_flops(k in arb_kernel(), extra in 1u64..1_000_000_000_000) {
        let m = LatencyModel;
        let gpu = systems::tesla_v100().gpu;
        let base = m.timing(&k, &gpu);
        let mut bigger = k.clone();
        bigger.flops = k.flops.saturating_add(extra);
        let t = m.timing(&bigger, &gpu);
        prop_assert!(t.duration_ns >= base.duration_ns);
    }

    #[test]
    fn latency_monotone_in_bytes(k in arb_kernel(), extra in 1u64..10_000_000_000) {
        let m = LatencyModel;
        let gpu = systems::tesla_v100().gpu;
        let base = m.timing(&k, &gpu);
        let mut bigger = k.clone();
        bigger.dram_read = k.dram_read.saturating_add(extra);
        let t = m.timing(&bigger, &gpu);
        prop_assert!(t.duration_ns >= base.duration_ns);
    }

    #[test]
    fn streams_never_overlap_within_one_stream(jobs in prop::collection::vec((0u64..10_000, 1u64..5_000), 1..50)) {
        let mut set = StreamSet::new();
        let mut windows = Vec::new();
        for (ready, busy) in jobs {
            windows.push(set.enqueue(StreamId(3), ready, busy));
        }
        for w in windows.windows(2) {
            prop_assert!(w[1].0 >= w[0].1, "in-order violated: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn host_clock_monotone_through_arbitrary_api_calls(ops in prop::collection::vec(0u8..4, 1..40)) {
        let ctx = CudaContext::new(CudaContextConfig::new(systems::tesla_p4()).jitter(0.01));
        let mut last = ctx.clock().now();
        for op in ops {
            match op {
                0 => {
                    ctx.launch_kernel(
                        KernelDesc::new("k", Dim3::x(64), Dim3::x(128)).flops(1_000_000),
                        StreamId::DEFAULT,
                    );
                }
                1 => {
                    ctx.memcpy(xsp_gpu::MemcpyKind::HostToDevice, 1_000, StreamId::DEFAULT);
                }
                2 => ctx.synchronize(),
                _ => ctx.malloc(64),
            }
            let now = ctx.clock().now();
            prop_assert!(now >= last);
            last = now;
        }
        ctx.synchronize();
        prop_assert!(ctx.clock().now() >= ctx.gpu_busy_until());
    }
}
