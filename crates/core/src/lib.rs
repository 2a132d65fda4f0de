//! # tc-core — forward-algorithm triangle counting
//!
//! The paper's contribution (Polak, *Counting Triangles in Large Graphs on
//! GPU*, IPDPSW 2016), reproduced end to end:
//!
//! * [`cpu`] — the sequential **forward** algorithm (the paper's baseline,
//!   §II-B), the **edge-iterator** and **node-iterator** references, a
//!   hashed forward variant, and a rayon-parallel forward counter;
//! * [`gpu`] — the CUDA implementation (§III) on the [`tc_simt`] simulator:
//!   the eight-step preprocessing pipeline, the `CountTriangles` kernel in
//!   both the preliminary and the read-avoiding final form, every §III-D
//!   optimization toggle, the §III-D6 CPU-preprocessing fallback, and the
//!   §III-E multi-GPU orchestration;
//! * [`clustering`] — per-vertex triangle counts, local clustering
//!   coefficients, and the transitivity ratio (the motivating application,
//!   §I);
//! * [`count`] — the front door: a [`CountRequest`] built around a
//!   [`Backend`] selector, the one one-shot entry point for every backend;
//!   every simulated-GPU topology reports one [`GpuReport`];
//! * [`approx`] — the approximation alternatives the paper cites (§V):
//!   DOULION edge sparsification \[6\] and wedge sampling \[7\];
//! * [`verify`] — brute-force reference counters used by the test suite.

#![forbid(unsafe_code)]

pub mod approx;
pub mod clustering;
pub mod count;
pub mod cpu;
pub mod error;
pub mod gpu;
pub mod verify;

pub use count::{Backend, CountRequest, GpuOptions, ParseBackendError, TriangleCount};
pub use error::{CoreError, ErrorContext};
pub use gpu::cluster::{ClusterPartition, PreparedCluster};
pub use gpu::pipeline::GpuReport;
pub use gpu::prepared::{PreparedCount, PreparedGraph};
pub use gpu::schedule::KernelSchedule;
pub use gpu::{EdgeLayout, LoopVariant};
