//! # xsp-bench — the reproduction harness
//!
//! One bench target per table and figure of the paper (`benches/`), plus
//! Criterion micro-benchmarks of the profiling infrastructure itself.
//! Each target prints the paper's reference values next to the measured
//! ones; `EXPERIMENTS.md` records the comparison.
//!
//! Sweeps drive their independent experiment points — batch sizes, models,
//! systems — through the parallel evaluation engine via [`par_points`];
//! `XSP_THREADS=1` forces the whole harness serial (for debugging or
//! apples-to-apples timing), `XSP_THREADS=N` pins the worker count, and the
//! default is one worker per core. Engine output is byte-identical across
//! all of these, so every printed table and shape check is unaffected.
//!
//! Run everything: `cargo bench --workspace`.
//! Run one experiment: `cargo bench -p xsp-bench --bench fig10_model_roofline_batch`.

#![warn(missing_docs)]

pub mod summary;

use xsp_core::profile::{
    BatchProfile, LeveledProfile, ProfileRequest, ProfilingLevel, Xsp, XspConfig,
};
use xsp_core::scheduler::{parmap, Parallelism};
use xsp_framework::FrameworkKind;
use xsp_gpu::{systems, System};
use xsp_models::zoo::{self, ModelEntry};

/// The batch sizes the paper sweeps (Figures 3/10/11, Table VI).
pub const BATCHES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Batch sizes for Figure 3 (which extends to 512).
pub const BATCHES_512: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Builds the default profiler: `runs` evaluations per level.
pub fn xsp_on(system: System, framework: FrameworkKind, runs: usize) -> Xsp {
    Xsp::new(XspConfig::new(system, framework).runs(runs))
}

/// The paper's reference model for the walkthrough experiments.
pub fn resnet50() -> ModelEntry {
    zoo::by_name("MLPerf_ResNet50_v1.5").expect("reference model present")
}

/// Full leveled profile of the reference model at `batch` on V100.
pub fn resnet50_profile(batch: usize) -> (LeveledProfile, System) {
    let system = systems::tesla_v100();
    let xsp = xsp_on(system.clone(), FrameworkKind::TensorFlow, 2);
    (
        xsp.run(ProfileRequest::new(&resnet50().graph(batch))),
        system,
    )
}

/// The engine parallelism the bench harness fans experiment points out
/// with: the `XSP_THREADS` override when set, one worker per core
/// otherwise.
pub fn engine_parallelism() -> Parallelism {
    Parallelism::from_env_or(Parallelism::Auto)
}

/// Fans independent experiment points (batch sizes, models, systems) out to
/// the parallel evaluation engine and returns the results in submission
/// order — so tables print identically for any worker count. Points that
/// profile *inside* `f` degrade their own engine use to serial (nested
/// parallelism is capped), keeping the machine at one pool.
pub fn par_points<T, R>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    parmap(engine_parallelism(), items, move |_, item| f(item))
}

/// Model-level batch sweep of the reference model (no early stop, full
/// range) — Figures 3/10/11 need every point. Points run through the
/// evaluation engine.
pub fn resnet50_sweep(system: System, batches: &[usize]) -> Vec<BatchProfile> {
    // Sweeps are content-addressed: repeat points (across figures that
    // share batch sizes, or repeat harness invocations in one process)
    // resolve from the profile cache instead of re-profiling. Safe because
    // profiles are pure functions of (config, graph, level) — the
    // byte-identity tests below hold with the cache on.
    let xsp = Xsp::new(
        XspConfig::new(system, FrameworkKind::TensorFlow)
            .runs(2)
            .cached(true),
    );
    par_points(batches.to_vec(), |batch| BatchProfile {
        batch,
        profile: xsp
            .run(ProfileRequest::new(&resnet50().graph(batch)).level(ProfilingLevel::Model)),
    })
}

/// Prints the standard experiment banner with the paper's claim for
/// side-by-side comparison.
pub fn banner(experiment: &str, paper_reference: &str) {
    println!("\n================================================================");
    println!("{experiment}");
    println!("paper reference: {paper_reference}");
    println!("================================================================");
}

/// Wall-clock the harness body (the "bench" part of a harness=false bench).
pub fn timed(label: &str, f: impl FnOnce()) {
    let start = std::time::Instant::now();
    f();
    println!("\n[{label}: completed in {:.2?}]", start.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_model_resolves() {
        assert_eq!(resnet50().id, 7);
    }

    #[test]
    fn sweep_produces_all_points() {
        let sweep = resnet50_sweep(systems::tesla_v100(), &[1, 2]);
        assert_eq!(sweep.len(), 2);
        assert!(sweep[0].throughput() > 0.0);
    }

    #[test]
    fn batch_lists() {
        assert_eq!(BATCHES.len(), 9);
        assert_eq!(*BATCHES_512.last().unwrap(), 512);
    }

    #[test]
    fn par_points_preserves_submission_order() {
        let out = par_points((0..16).collect::<Vec<usize>>(), |x| x * 3);
        assert_eq!(out, (0..16).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn engine_sweep_matches_serial_sweep() {
        let engine = resnet50_sweep(systems::tesla_v100(), &[1, 2, 4]);
        let xsp = xsp_on(systems::tesla_v100(), FrameworkKind::TensorFlow, 2);
        for p in engine.iter().zip([1usize, 2, 4]) {
            let serial =
                xsp.run(ProfileRequest::new(&resnet50().graph(p.1)).level(ProfilingLevel::Model));
            assert_eq!(p.0.profile.to_span_json(), serial.to_span_json());
        }
    }
}
