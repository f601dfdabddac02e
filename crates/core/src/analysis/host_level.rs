//! Extension analysis (§III-E): host/CPU-side dispatch characterization.
//!
//! "One can integrate CPU profilers into XSP to capture both CPU and GPU
//! information within the same timeline." With
//! [`crate::profile::XspConfig::host_level`] enabled, each executed op emits
//! a hardware-level `host:dispatch:<Type>` span covering its host-side
//! dispatch work; this analysis aggregates them per op type — the CPU
//! counterpart to A13's GPU/non-GPU split.

use crate::profile::LeveledProfile;
use xsp_trace::StackLevel;

/// One row of the host-dispatch aggregation.
#[derive(Debug, Clone)]
pub struct HostDispatchRow {
    /// Op type name ("Conv2D", "Where", ...).
    pub op_type: String,
    /// Number of dispatches.
    pub count: usize,
    /// Total host dispatch time, ms.
    pub total_ms: f64,
    /// Share of total dispatch time, percent.
    pub percent: f64,
}

/// Aggregates host-dispatch spans by op type (extension analysis "AX2").
/// Empty when the profile was collected without the host level enabled.
pub fn ax2_host_dispatch(profile: &LeveledProfile) -> Vec<HostDispatchRow> {
    let Some(run) = profile.mlg_runs.first().or(profile.metric_runs.first()) else {
        return Vec::new();
    };
    let mut rows: Vec<HostDispatchRow> = Vec::new();
    for s in run.trace.spans() {
        if s.level != StackLevel::Kernel {
            continue;
        }
        let Some(op_type) = s.name.strip_prefix("host:dispatch:") else {
            continue;
        };
        match rows.iter_mut().find(|r| r.op_type == op_type) {
            Some(r) => {
                r.count += 1;
                r.total_ms += s.duration_ms();
            }
            None => rows.push(HostDispatchRow {
                op_type: op_type.to_owned(),
                count: 1,
                total_ms: s.duration_ms(),
                percent: 0.0,
            }),
        }
    }
    let total: f64 = rows.iter().map(|r| r.total_ms).sum();
    for r in &mut rows {
        r.percent = if total > 0.0 {
            100.0 * r.total_ms / total
        } else {
            0.0
        };
    }
    rows.sort_by(|a, b| b.total_ms.partial_cmp(&a.total_ms).unwrap());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileRequest, Xsp, XspConfig};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn profile(host_level: bool, model: &str, batch: usize) -> LeveledProfile {
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .host_level(host_level);
        Xsp::new(cfg).run(ProfileRequest::new(
            &zoo::by_name(model).unwrap().graph(batch),
        ))
    }

    #[test]
    fn disabled_by_default() {
        let p = profile(false, "MobileNet_v1_0.25_128", 2);
        assert!(ax2_host_dispatch(&p).is_empty());
    }

    #[test]
    fn host_spans_aggregate_per_op_type() {
        let p = profile(true, "MobileNet_v1_0.25_128", 2);
        let rows = ax2_host_dispatch(&p);
        assert!(!rows.is_empty());
        let total_dispatches: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(
            total_dispatches,
            p.layers().len(),
            "one host span per executed op"
        );
        let pct: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((pct - 100.0).abs() < 1e-6);
    }

    #[test]
    fn where_dispatch_dominates_detection_models() {
        let p = profile(true, "MLPerf_SSD_MobileNet_v1_300x300", 2);
        let rows = ax2_host_dispatch(&p);
        assert_eq!(
            rows[0].op_type, "Where",
            "Where carries the host time: {rows:?}"
        );
        assert!(rows[0].percent > 50.0);
    }

    #[test]
    fn host_spans_do_not_break_kernel_correlation() {
        let p = profile(true, "MobileNet_v1_0.25_128", 2);
        assert!(p.kernels().iter().all(|k| k.layer_index.is_some()));
    }
}
