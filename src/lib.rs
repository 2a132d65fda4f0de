//! # triangles — GPU triangle counting, reproduced in Rust
//!
//! Façade crate for the reproduction of Adam Polak's *Counting Triangles in
//! Large Graphs on GPU* (IPDPSW 2016). It re-exports the workspace crates so
//! downstream users need a single dependency:
//!
//! * [`graph`] — edge arrays, CSR, adjacency lists, I/O ([`tc_graph`]).
//! * [`gen`] — deterministic synthetic graph generators ([`tc_gen`]).
//! * [`simt`] — the SIMT GPU simulator the "GPU" runs on ([`tc_simt`]).
//! * [`core`] — the triangle-counting algorithms themselves ([`tc_core`]).
//! * [`engine`] — the batched counting engine: prepared-session cache,
//!   bounded queues ([`tc_engine`]).
//!
//! ## Quickstart
//!
//! ```
//! use triangles::gen::{kronecker::Rmat, Seed};
//! use triangles::core::{Backend, CountRequest};
//!
//! // A small Kronecker R-MAT graph, like the paper's synthetic suite.
//! let graph = Rmat::scale(8).edge_factor(8).generate(Seed(42));
//!
//! // Count on the simulated GTX 980 and on the CPU baseline; they agree.
//! let gpu = CountRequest::new(Backend::gpu_gtx980()).run(&graph).unwrap();
//! let cpu = CountRequest::new(Backend::CpuForward).run(&graph).unwrap();
//! assert_eq!(gpu.triangles, cpu.triangles);
//! ```

#![forbid(unsafe_code)]

pub use tc_bench as bench;
pub use tc_core as core;
pub use tc_engine as engine;
pub use tc_gen as gen;
pub use tc_graph as graph;
pub use tc_simt as simt;
pub use tc_telemetry as telemetry;

/// Convenience prelude bringing the common types into scope.
pub mod prelude {
    pub use tc_core::{Backend, CountRequest, TriangleCount};
    pub use tc_gen::Seed;
    pub use tc_graph::{Csr, Edge, EdgeArray, GraphStats};
    pub use tc_simt::DeviceConfig;
}
