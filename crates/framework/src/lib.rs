//! # xsp-framework — the ML framework substrate
//!
//! XSP's layer-level profiling rides on "the ML framework's existing
//! profiling capability" (§III-B-2). This crate is the framework the
//! profilers observe: a layer-graph executor with two *personalities*
//! reproducing the behaviors the paper measures:
//!
//! * **TensorFlow**: decomposes `FusedBatchNorm` into `Mul`/`Add`
//!   element-wise layers at graph-rewrite time — which is why ResNet modules
//!   "get executed by TensorFlow as a Conv2D → Mul → Add → Relu layer
//!   sequence" (§III-D2) — and implements element-wise layers with Eigen
//!   kernels (excess DRAM traffic, §IV-B). Layer profiling is switched on
//!   per prediction via [`RunOptions`], mirroring
//!   `RunOptions.TraceLevel`/`TF_SessionRun`.
//! * **MXNet**: keeps `BatchNorm` fused, uses native element-wise kernels
//!   (fewer DRAM accesses, higher occupancy), and pays a fixed per-inference
//!   engine overhead — "MXNet incurs a fixed overhead for model execution
//!   which is more pronounced for small batch sizes" (§IV-B). Profiling
//!   toggles via the `MXSetProfilerState` analogue.
//!
//! Execution is asynchronous against the simulated GPU: the host dispatches
//! ops and launches kernels ahead of the device, exactly the regime that
//! makes kernel↔layer correlation non-trivial and XSP necessary. Enabling
//! layer profiling serializes op completion (the framework must timestamp
//! each op), which *is* the layer-level profiling overhead the paper's
//! leveled experimentation quantifies (Figure 2).

#![warn(missing_docs)]

pub mod executor;
pub mod graph;
pub mod kernels;
pub mod personality;
pub mod plan;

pub use executor::{PredictStats, RunOptions, Session};
pub use graph::{Layer, LayerGraph, LayerOp, TensorShape};
pub use personality::FrameworkKind;
pub use plan::ExecutionPlan;
