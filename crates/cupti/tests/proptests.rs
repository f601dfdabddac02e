//! Property tests for the CUPTI analogue: record bookkeeping and span
//! conversion over arbitrary launch sequences.

use proptest::prelude::*;
use std::sync::Arc;
use xsp_cupti::{replay_passes_for, Cupti, MetricKind};
use xsp_gpu::{systems, CudaContext, CudaContextConfig, Dim3, KernelDesc, StreamId};
use xsp_trace::{TraceId, TracingServer};

fn arb_metrics() -> impl Strategy<Value = Vec<MetricKind>> {
    prop::collection::vec(prop::sample::select(MetricKind::ALL.to_vec()), 0..4).prop_map(|mut v| {
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_launch_yields_runtime_and_kernel_records(n in 1usize..40) {
        let system = systems::tesla_v100();
        let cupti = Arc::new(Cupti::new(Vec::new(), system.gpu.clone()));
        let ctx = CudaContext::new(CudaContextConfig::new(system).jitter(0.0));
        ctx.register_hook(cupti.clone());
        for i in 0..n {
            ctx.launch_kernel(
                KernelDesc::new(format!("k{i}"), Dim3::x(32), Dim3::x(128)).flops(1_000_000),
                StreamId::DEFAULT,
            );
        }
        let records = cupti.drain_records();
        let runtime = records.iter().filter(|r| r.kind() == "runtime").count();
        let kernel = records.iter().filter(|r| r.kind() == "kernel").count();
        prop_assert_eq!(runtime, n);
        prop_assert_eq!(kernel, n);
    }

    #[test]
    fn span_conversion_pairs_by_correlation_id(n in 1usize..25) {
        let system = systems::tesla_v100();
        let cupti = Arc::new(Cupti::new(Vec::new(), system.gpu.clone()));
        let ctx = CudaContext::new(CudaContextConfig::new(system).jitter(0.0));
        ctx.register_hook(cupti.clone());
        for i in 0..n {
            ctx.launch_kernel(
                KernelDesc::new(format!("k{i}"), Dim3::x(32), Dim3::x(128)).flops(1_000),
                StreamId::DEFAULT,
            );
        }
        let server = TracingServer::new();
        let tracer = server.tracer("cupti");
        let published = cupti.flush_to_tracer(&tracer, TraceId(1));
        prop_assert_eq!(published, 2 * n);
        let trace = server.drain();
        let launches: Vec<u64> = trace
            .spans()
            .iter()
            .filter(|s| s.is_async_launch())
            .filter_map(|s| s.correlation_id())
            .collect();
        let execs: Vec<u64> = trace
            .spans()
            .iter()
            .filter(|s| s.is_async_execution())
            .filter_map(|s| s.correlation_id())
            .collect();
        let mut l = launches.clone();
        l.sort_unstable();
        let mut e = execs.clone();
        e.sort_unstable();
        prop_assert_eq!(l, e, "every launch has a matching execution");
    }

    #[test]
    fn replay_passes_monotone_in_metric_set(metrics in arb_metrics(), extra in prop::sample::select(MetricKind::ALL.to_vec())) {
        let gpu = systems::tesla_v100().gpu;
        let base = replay_passes_for(&metrics, &gpu);
        let mut more = metrics.clone();
        if !more.contains(&extra) {
            more.push(extra);
        }
        let bigger = replay_passes_for(&more, &gpu);
        prop_assert!(bigger >= base);
        prop_assert!(base >= 1);
    }
}
