//! # tc-simt — a SIMT GPU simulator
//!
//! This crate stands in for the CUDA devices of the paper (see DESIGN.md §2).
//! It is *not* a general-purpose GPU simulator; it models exactly the
//! features the paper's evaluation exercises:
//!
//! * **Execution**: streaming multiprocessors (SMs) holding resident thread
//!   blocks; warps executed in lockstep with divergence serialization; an
//!   in-order issue pipeline per SM with multiple issue slots; latency
//!   hiding across resident warps ([`executor`]).
//! * **Memory**: a device-wide arena with capacity accounting ([`arena`] —
//!   §III-D6's "graph too large to fit" path), per-SM read-only/texture
//!   caches and address-sliced L2 ([`cache`] — §III-D4), warp-level
//!   coalescing into 32 B transactions ([`coalesce`]), DRAM bandwidth
//!   accounting (Table II), and a PCIe transfer model (the paper measures
//!   wall time from the host-to-device copy).
//! * **Device primitives**: functional equivalents of the Thrust routines
//!   the preprocessing phase uses — reduce, scan, radix sort, stream
//!   compaction, transform/unzip ([`primitives`]) — with analytic,
//!   bandwidth-derived timing.
//! * **Kernels**: user-defined per-thread state machines ([`kernel`]) whose
//!   memory traffic is simulated cycle-by-cycle. The triangle-counting
//!   kernel in `tc-core` is written against this interface.
//!
//! * **Analysis**: a compute-sanitizer-style layer ([`sanitizer`]) —
//!   memcheck, initcheck, racecheck, and access-pattern lints over the
//!   simulated memory path, off by default and a true no-op when off —
//!   plus a static launch verifier ([`verifier`]) that proves per-kernel
//!   access contracts in-bounds and race-free before a launch runs.
//! * **Replay**: a per-device launch memo ([`Device::launch`]) that serves a
//!   sanitizer-off launch the device already simulated — same kernel
//!   value, launch config and arena bytes — from its recorded stats and
//!   store log instead of stepping the lanes again.
//! * **Clusters**: a multi-node [`ClusterTopology`] and the latency +
//!   bandwidth interconnect charge ([`cluster::charge_internode`]) layered
//!   on the per-node PCIe model. Devices stay independent: a multi-device
//!   run is a set of [`Device`]s, and the sharded cluster counter in
//!   `tc-core` charges each transfer off node 0 to its device's clock.
//!
//! Simulated time is deterministic: the same kernel on the same device
//! preset always reports the same cycle count, cache hit rate, and DRAM
//! traffic.

#![forbid(unsafe_code)]

pub mod arena;
pub mod cache;
pub mod cluster;
pub mod coalesce;
pub mod config;
pub mod device;
pub mod error;
pub mod executor;
pub mod kernel;
mod memo;
pub mod primitives;
pub mod profiler;
pub mod sanitizer;
pub mod verifier;

pub use arena::{DeviceBuffer, DeviceScalar};
pub use cluster::ClusterTopology;
pub use config::DeviceConfig;
pub use device::{Device, TimedOp};
pub use error::SimtError;
pub use executor::{KernelStats, LaunchConfig};
pub use kernel::{Effect, Kernel, MemView};
pub use memo::LaunchTally;
pub use profiler::{Counters, ProfileReport, Span};
pub use sanitizer::{Finding, FindingKind, Lint, LintKind, SanitizerMode, SanitizerReport};
pub use verifier::{
    Access, AccessContract, AffineFootprint, Interval, VerifierFinding, VerifierFindingKind,
    VerifierReport,
};
