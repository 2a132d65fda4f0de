//! The front door: build a [`CountRequest`], get a count.

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use tc_graph::EdgeArray;
use tc_simt::profiler::ProfileReport;
use tc_simt::{
    ClusterTopology, DeviceConfig, LaunchConfig, SanitizerMode, SanitizerReport, VerifierReport,
};

use crate::cpu;
use crate::error::{CoreError, ErrorContext};
use crate::gpu::cluster::{run_cluster, run_cluster_profiled, ClusterPartition};
use crate::gpu::multi::{merged_profile, run_multi_gpu, run_multi_gpu_profiled};
use crate::gpu::pipeline::{run_gpu_pipeline, run_gpu_pipeline_profiled, GpuReport};
use crate::gpu::{EdgeLayout, KernelSchedule, LoopVariant};

/// Configuration of a simulated-GPU run: the device preset plus every
/// §III-D optimization toggle (all default to the paper's published
/// configuration).
///
/// Construct with [`GpuOptions::new`] (or [`GpuOptions::default`] for the
/// flagship GTX 980) and mutate the public fields; the struct is
/// `#[non_exhaustive]` so future toggles can be added without breaking
/// downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct GpuOptions {
    pub device: DeviceConfig,
    pub kernel: LoopVariant,
    pub layout: EdgeLayout,
    pub use_texture_cache: bool,
    /// §III-D5 warp-reduction factor (1 = off).
    pub warp_split: u32,
    /// Override the launch geometry (`None` = the paper's tuned 64×8/SM).
    pub launch: Option<LaunchConfig>,
    /// Pre-create the context before the measured window (§IV).
    pub preinit_context: bool,
    /// Workload-balanced kernel scheduling (degree-binned dispatch; the
    /// default is the paper's thread-per-edge mapping).
    pub schedule: KernelSchedule,
    /// Degree-descending vertex reordering before orientation (TRUST-style
    /// relabeling; a pure layout change — counts are unaffected).
    pub reorder: bool,
    /// Compute-sanitizer mode for the run (memcheck/initcheck/racecheck
    /// over the simulated memory path; `Off` is a true no-op). The
    /// effective mode is the stricter of this and the device config's own
    /// `sanitizer` field.
    pub sanitizer: SanitizerMode,
    /// Static kernel-launch verifier: prove every launch's declared access
    /// contract in-bounds and race-free before it runs, and check analytic
    /// host passes against the allocation map. Host-side only — modeled
    /// time is untouched. The effective setting is this OR the device
    /// config's own `verifier` field.
    pub verify: bool,
}

impl GpuOptions {
    /// The paper's production configuration on the given device.
    pub fn new(device: DeviceConfig) -> Self {
        GpuOptions {
            device,
            kernel: LoopVariant::FinalReadAvoiding,
            layout: EdgeLayout::SoA,
            use_texture_cache: true,
            warp_split: 1,
            launch: None,
            preinit_context: true,
            schedule: KernelSchedule::ThreadPerEdge,
            reorder: false,
            sanitizer: SanitizerMode::Off,
            verify: false,
        }
    }

    /// The same configuration with the workload-balanced scheduler on.
    pub fn balanced(device: DeviceConfig) -> Self {
        let mut o = GpuOptions::new(device);
        o.schedule = KernelSchedule::Balanced;
        o
    }

    /// The balanced scheduler with the hash-strategy heavy bin.
    pub fn balanced_hash(device: DeviceConfig) -> Self {
        let mut o = GpuOptions::new(device);
        o.schedule = KernelSchedule::BalancedHash;
        o
    }
}

impl Default for GpuOptions {
    /// The paper's flagship configuration: a GTX 980 with every published
    /// optimization on.
    fn default() -> Self {
        GpuOptions::new(DeviceConfig::gtx_980())
    }
}

/// Which algorithm/hardware counts the triangles.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// backends can be added. Every backend has a canonical CLI/jobfile token
/// ([`Backend::from_str`] / `Display`) — `tcount`, `repro`, and the engine
/// jobfile parser all parse through that one code path.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub enum Backend {
    #[default]
    /// Sequential forward — the paper's CPU baseline.
    CpuForward,
    /// Sequential edge-iterator (§II-A reference).
    CpuEdgeIterator,
    /// Sequential node-iterator (independent reference).
    CpuNodeIterator,
    /// Forward with hashed intersections.
    CpuForwardHashed,
    /// Rayon-parallel forward (the §V multi-core comparison point).
    CpuParallel,
    /// Hybrid forward + dense high-degree counting (§VI future work);
    /// `None` picks the √(2m̂) threshold automatically.
    CpuHybrid { threshold: Option<u32> },
    /// Single simulated GPU.
    Gpu(GpuOptions),
    /// Multi-GPU (§III-E).
    MultiGpu { options: GpuOptions, devices: usize },
    /// Partition the graph into vertex ranges and count subproblem-by-
    /// subproblem within bounded device memory (§VI future work, scheme
    /// of \[5\]).
    GpuSplit { options: GpuOptions, parts: usize },
    /// A sharded multi-node cluster (DistTC-style partition-aware
    /// ownership): `nodes` × `devices_per_node` simulated devices joined
    /// by a modeled interconnect, each holding only its shard of the
    /// oriented arcs plus the boundary adjacency it reads.
    Cluster {
        options: GpuOptions,
        nodes: usize,
        devices_per_node: usize,
        partition: ClusterPartition,
    },
}

impl Backend {
    /// Simulated GTX 980 with the paper's defaults.
    pub fn gpu_gtx980() -> Self {
        Backend::Gpu(GpuOptions::new(DeviceConfig::gtx_980()))
    }

    /// Simulated Tesla C2050 with the paper's defaults.
    pub fn gpu_tesla_c2050() -> Self {
        Backend::Gpu(GpuOptions::new(DeviceConfig::tesla_c2050()))
    }

    /// Simulated NVS 5200M.
    pub fn gpu_nvs_5200m() -> Self {
        Backend::Gpu(GpuOptions::new(DeviceConfig::nvs_5200m()))
    }

    /// `n` simulated Tesla C2050s (the paper's 4-GPU rig).
    pub fn multi_gpu_c2050(devices: usize) -> Self {
        Backend::MultiGpu {
            options: GpuOptions::new(DeviceConfig::tesla_c2050()),
            devices,
        }
    }

    /// A `nodes` × `devices_per_node` cluster of simulated GTX 980s with
    /// 1D partitioning and the paper's defaults.
    pub fn cluster_gtx980(nodes: usize, devices_per_node: usize) -> Self {
        Backend::Cluster {
            options: GpuOptions::new(DeviceConfig::gtx_980()),
            nodes,
            devices_per_node,
            partition: ClusterPartition::OneD,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Backend::CpuForward => "cpu-forward".into(),
            Backend::CpuEdgeIterator => "cpu-edge-iterator".into(),
            Backend::CpuNodeIterator => "cpu-node-iterator".into(),
            Backend::CpuForwardHashed => "cpu-forward-hashed".into(),
            Backend::CpuParallel => "cpu-parallel".into(),
            Backend::CpuHybrid { threshold: Some(t) } => format!("cpu-hybrid(tau={t})"),
            Backend::CpuHybrid { threshold: None } => "cpu-hybrid(auto)".into(),
            Backend::Gpu(o) => {
                let reorder = if o.reorder { ", reorder" } else { "" };
                match o.schedule {
                    KernelSchedule::ThreadPerEdge => {
                        format!("gpu-sim({}{reorder})", o.device.name)
                    }
                    s => format!("gpu-sim({}, {s}{reorder})", o.device.name),
                }
            }
            Backend::MultiGpu { options, devices } => {
                let reorder = if options.reorder { ", reorder" } else { "" };
                match options.schedule {
                    KernelSchedule::ThreadPerEdge => {
                        format!("{}x-gpu-sim({}{reorder})", devices, options.device.name)
                    }
                    s => format!(
                        "{}x-gpu-sim({}, {s}{reorder})",
                        devices, options.device.name
                    ),
                }
            }
            Backend::GpuSplit { options, parts } => {
                format!("gpu-split({}, {} parts)", options.device.name, parts)
            }
            Backend::Cluster {
                options,
                nodes,
                devices_per_node,
                partition,
            } => {
                let reorder = if options.reorder { ", reorder" } else { "" };
                let sched = match options.schedule {
                    KernelSchedule::ThreadPerEdge => String::new(),
                    s => format!(", {s}"),
                };
                format!(
                    "cluster-sim({nodes}x{devices_per_node}, {}, {partition}{sched}{reorder})",
                    options.device.name
                )
            }
        }
    }

    /// Whether timings from this backend are *modeled* (simulated-device
    /// seconds, deterministic across runs and hosts) rather than measured
    /// host wall time. Telemetry classes modeled timings as deterministic
    /// metrics; host-measured CPU timings go in the advisory section.
    pub fn is_modeled(&self) -> bool {
        matches!(
            self,
            Backend::Gpu(_)
                | Backend::MultiGpu { .. }
                | Backend::GpuSplit { .. }
                | Backend::Cluster { .. }
        )
    }

    /// The scheduling knob of the backend's GPU options, if it has one.
    fn schedule_mut(&mut self) -> Option<&mut KernelSchedule> {
        match self {
            Backend::Gpu(o) => Some(&mut o.schedule),
            Backend::MultiGpu { options, .. }
            | Backend::GpuSplit { options, .. }
            | Backend::Cluster { options, .. } => Some(&mut options.schedule),
            _ => None,
        }
    }

    /// The reorder knob of the backend's GPU options, if it has one.
    fn reorder_mut(&mut self) -> Option<&mut bool> {
        match self {
            Backend::Gpu(o) => Some(&mut o.reorder),
            Backend::MultiGpu { options, .. }
            | Backend::GpuSplit { options, .. }
            | Backend::Cluster { options, .. } => Some(&mut options.reorder),
            _ => None,
        }
    }

    /// The sanitizer knob of the backend's GPU options, if it has one.
    fn sanitizer_mut(&mut self) -> Option<&mut SanitizerMode> {
        match self {
            Backend::Gpu(o) => Some(&mut o.sanitizer),
            Backend::MultiGpu { options, .. }
            | Backend::GpuSplit { options, .. }
            | Backend::Cluster { options, .. } => Some(&mut options.sanitizer),
            _ => None,
        }
    }

    /// Set the sanitizer mode on a GPU backend. Returns whether the
    /// backend has a sanitizer knob (CPU backends do not).
    pub fn set_sanitizer(&mut self, mode: SanitizerMode) -> bool {
        match self.sanitizer_mut() {
            Some(slot) => {
                *slot = mode;
                true
            }
            None => false,
        }
    }

    /// The backend's sanitizer mode (`Off` for CPU backends).
    pub fn sanitizer(&self) -> SanitizerMode {
        match self {
            Backend::Gpu(o) => o.sanitizer,
            Backend::MultiGpu { options, .. }
            | Backend::GpuSplit { options, .. }
            | Backend::Cluster { options, .. } => options.sanitizer,
            _ => SanitizerMode::Off,
        }
    }

    /// The verifier knob of the backend's GPU options, if it has one.
    fn verify_mut(&mut self) -> Option<&mut bool> {
        match self {
            Backend::Gpu(o) => Some(&mut o.verify),
            Backend::MultiGpu { options, .. }
            | Backend::GpuSplit { options, .. }
            | Backend::Cluster { options, .. } => Some(&mut options.verify),
            _ => None,
        }
    }

    /// Toggle the static launch verifier on a GPU backend. Returns whether
    /// the backend has a verifier knob (CPU backends do not).
    pub fn set_verify(&mut self, on: bool) -> bool {
        match self.verify_mut() {
            Some(slot) => {
                *slot = on;
                true
            }
            None => false,
        }
    }

    /// Whether the backend runs the static launch verifier (`false` for
    /// CPU backends).
    pub fn verify(&self) -> bool {
        match self {
            Backend::Gpu(o) => o.verify,
            Backend::MultiGpu { options, .. }
            | Backend::GpuSplit { options, .. }
            | Backend::Cluster { options, .. } => options.verify,
            _ => false,
        }
    }
}

/// The `/reorder` token suffix for the relabeling toggle.
fn reorder_suffix(on: bool) -> &'static str {
    if on {
        "/reorder"
    } else {
        ""
    }
}

/// The `/sanitize[:paranoid]` token suffix for a sanitizer mode.
fn sanitize_suffix(mode: SanitizerMode) -> &'static str {
    match mode {
        SanitizerMode::Off => "",
        SanitizerMode::Check => "/sanitize",
        SanitizerMode::Paranoid => "/sanitize:paranoid",
    }
}

/// Parse a `sanitize` clause (the part after the `/`).
fn parse_sanitize_clause(clause: &str) -> Option<SanitizerMode> {
    match clause {
        "sanitize" => Some(SanitizerMode::Check),
        "sanitize:paranoid" => Some(SanitizerMode::Paranoid),
        _ => None,
    }
}

/// The `/verify` token suffix for the static launch verifier toggle.
fn verify_suffix(on: bool) -> &'static str {
    if on {
        "/verify"
    } else {
        ""
    }
}

/// The canonical token for a device preset, if it has one.
fn device_token(name: &str) -> Option<&'static str> {
    match name {
        "GTX 980" => Some("gtx980"),
        "Tesla C2050" => Some("c2050"),
        "NVS 5200M" => Some("nvs5200m"),
        _ => None,
    }
}

/// The device preset for a canonical token.
fn device_for_token(token: &str) -> Option<DeviceConfig> {
    match token {
        "gtx980" => Some(DeviceConfig::gtx_980()),
        "c2050" => Some(DeviceConfig::tesla_c2050()),
        "nvs5200m" => Some(DeviceConfig::nvs_5200m()),
        _ => None,
    }
}

impl fmt::Display for Backend {
    /// The canonical token: what `--backend` and engine jobfiles accept.
    /// For preset devices with default options, `from_str(&b.to_string())`
    /// round-trips; a GPU backend on a non-preset device renders as
    /// `gpu:<name>`, which is informational only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::CpuForward => f.write_str("forward"),
            Backend::CpuEdgeIterator => f.write_str("edge-iterator"),
            Backend::CpuNodeIterator => f.write_str("node-iterator"),
            Backend::CpuForwardHashed => f.write_str("hashed"),
            Backend::CpuParallel => f.write_str("parallel"),
            Backend::CpuHybrid { threshold: None } => f.write_str("hybrid"),
            Backend::CpuHybrid { threshold: Some(t) } => write!(f, "hybrid:{t}"),
            Backend::Gpu(o) => {
                match device_token(o.device.name) {
                    Some(tok) => f.write_str(tok)?,
                    None => write!(f, "gpu:{}", o.device.name)?,
                }
                f.write_str(&o.schedule.token_suffix())?;
                f.write_str(reorder_suffix(o.reorder))?;
                f.write_str(sanitize_suffix(o.sanitizer))?;
                f.write_str(verify_suffix(o.verify))
            }
            Backend::MultiGpu { options, devices } => {
                match device_token(options.device.name) {
                    Some(tok) => write!(f, "{devices}x{tok}")?,
                    None => write!(f, "{devices}xgpu:{}", options.device.name)?,
                }
                f.write_str(&options.schedule.token_suffix())?;
                f.write_str(reorder_suffix(options.reorder))?;
                f.write_str(sanitize_suffix(options.sanitizer))?;
                f.write_str(verify_suffix(options.verify))
            }
            Backend::GpuSplit { options, parts } => {
                match device_token(options.device.name) {
                    Some(tok) => write!(f, "{tok}/split:{parts}")?,
                    None => write!(f, "gpu:{}/split:{parts}", options.device.name)?,
                }
                f.write_str(&options.schedule.token_suffix())?;
                f.write_str(reorder_suffix(options.reorder))?;
                f.write_str(sanitize_suffix(options.sanitizer))?;
                f.write_str(verify_suffix(options.verify))
            }
            Backend::Cluster {
                options,
                nodes,
                devices_per_node,
                partition,
            } => {
                write!(
                    f,
                    "cluster:{nodes}x{devices_per_node}{}",
                    partition.token_suffix()
                )?;
                match device_token(options.device.name) {
                    Some(tok) => write!(f, "/{tok}")?,
                    None => write!(f, "/gpu:{}", options.device.name)?,
                }
                f.write_str(&options.schedule.token_suffix())?;
                f.write_str(reorder_suffix(options.reorder))?;
                f.write_str(sanitize_suffix(options.sanitizer))?;
                f.write_str(verify_suffix(options.verify))
            }
        }
    }
}

/// A backend token [`Backend::from_str`] could not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBackendError {
    token: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected forward, edge-iterator, node-iterator, hashed, \
             parallel, hybrid[:<tau>], gtx980, c2050, nvs5200m, <n>x<device>, \
             <device>/split:<parts>, or cluster:<n>x<m>[:2d]/<device>, each GPU form \
             optionally followed by /balanced[:<t>x<w>] or /balanced+hash, then /reorder, \
             then /sanitize[:paranoid], then /verify)",
            self.token
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for Backend {
    type Err = ParseBackendError;

    /// Parse a canonical backend token — the single parser behind `tcount
    /// --backend`, `repro`, and engine jobfiles.
    ///
    /// The workload-balanced scheduler is a `/balanced[:<t>x<w>]` suffix on
    /// any GPU form: `gtx980/balanced` auto-tunes, `gtx980/balanced:16x8`
    /// fixes the light/heavy work threshold and heavy-bin virtual-warp
    /// width, and `gtx980/balanced+hash` adds the hash-strategy heavy bin.
    /// Degree-descending reordering is a `/reorder` suffix after the
    /// scheduling clause; the compute-sanitizer is a
    /// `/sanitize[:paranoid]` suffix after that; the static launch
    /// verifier is a final `/verify` suffix on any GPU form.
    ///
    /// A sharded cluster is `cluster:<n>x<m>[:2d]/<device>` — `n` nodes of
    /// `m` devices each, 1D edge partitioning by default, `:2d` for the
    /// two-dimensional owner × target grid — and composes with the same
    /// suffixes: `cluster:2x2/gtx980/balanced`.
    ///
    /// ```
    /// use tc_core::Backend;
    ///
    /// for token in [
    ///     "forward",
    ///     "hybrid:40",
    ///     "gtx980",
    ///     "4xc2050",
    ///     "c2050/split:3",
    ///     "gtx980/balanced",
    ///     "gtx980/balanced+hash",
    ///     "2xc2050/balanced:16x8",
    ///     "gtx980/reorder",
    ///     "gtx980/balanced+hash/reorder",
    ///     "gtx980/sanitize",
    ///     "c2050/sanitize:paranoid",
    ///     "gtx980/balanced/sanitize",
    ///     "gtx980/balanced/reorder/sanitize",
    ///     "gtx980/verify",
    ///     "gtx980/sanitize/verify",
    ///     "gtx980/balanced+hash/reorder/sanitize:paranoid/verify",
    ///     "cluster:2x2/gtx980",
    ///     "cluster:4x2:2d/c2050",
    ///     "cluster:2x2/gtx980/balanced",
    /// ] {
    ///     let b: Backend = token.parse().unwrap();
    ///     assert_eq!(b.to_string(), token, "canonical tokens round-trip");
    /// }
    /// assert!("warp9".parse::<Backend>().is_err());
    /// assert!("forward/balanced".parse::<Backend>().is_err());
    /// assert!("forward/sanitize".parse::<Backend>().is_err());
    /// assert!("forward/reorder".parse::<Backend>().is_err());
    /// assert!("forward/verify".parse::<Backend>().is_err());
    /// assert!("gtx980/verify/sanitize".parse::<Backend>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseBackendError { token: s.into() };
        // Peel the verifier suffix first: it is the final suffix of every
        // canonical GPU token (`gtx980/verify`,
        // `gtx980/balanced+hash/sanitize/verify`, …), so anything trailing
        // it is rejected.
        if let Some(pos) = s.find("/verify") {
            if pos + "/verify".len() != s.len() {
                return Err(err());
            }
            let mut backend: Backend = s[..pos].parse().map_err(|_| err())?;
            *backend.verify_mut().ok_or_else(err)? = true;
            return Ok(backend);
        }
        // Then the sanitizer suffix — last before `/verify` in every
        // canonical GPU token (`gtx980/sanitize`,
        // `2xc2050/balanced:16x8/sanitize:paranoid`, …).
        if let Some(pos) = s.find("/sanitize") {
            let mode = parse_sanitize_clause(&s[pos + 1..]).ok_or_else(err)?;
            let mut backend: Backend = s[..pos].parse().map_err(|_| err())?;
            *backend.sanitizer_mut().ok_or_else(err)? = mode;
            return Ok(backend);
        }
        // Then `/reorder`, which canonically sits between the scheduling
        // clause and the sanitizer: `gtx980/balanced+hash/reorder`. The
        // find-based peel rejects anything trailing it (so the
        // non-canonical `gtx980/reorder/balanced` does not parse).
        if let Some(pos) = s.find("/reorder") {
            if pos + "/reorder".len() != s.len() {
                return Err(err());
            }
            let mut backend: Backend = s[..pos].parse().map_err(|_| err())?;
            *backend.reorder_mut().ok_or_else(err)? = true;
            return Ok(backend);
        }
        // Then the scheduling suffix: it composes with every GPU form
        // (`gtx980/balanced`, `2xc2050/balanced:16x8`, …).
        if let Some(pos) = s.find("/balanced") {
            let schedule = KernelSchedule::parse_clause(&s[pos + 1..]).ok_or_else(err)?;
            let mut backend: Backend = s[..pos].parse().map_err(|_| err())?;
            *backend.schedule_mut().ok_or_else(err)? = schedule;
            return Ok(backend);
        }
        match s {
            "forward" => return Ok(Backend::CpuForward),
            "edge-iterator" => return Ok(Backend::CpuEdgeIterator),
            "node-iterator" => return Ok(Backend::CpuNodeIterator),
            "hashed" => return Ok(Backend::CpuForwardHashed),
            "parallel" => return Ok(Backend::CpuParallel),
            "hybrid" => return Ok(Backend::CpuHybrid { threshold: None }),
            _ => {}
        }
        if let Some(tau) = s.strip_prefix("hybrid:") {
            let t = tau.parse::<u32>().map_err(|_| err())?;
            return Ok(Backend::CpuHybrid { threshold: Some(t) });
        }
        // `cluster:<n>x<m>[:2d]/<device>`: a sharded multi-node cluster.
        if let Some(rest) = s.strip_prefix("cluster:") {
            let (topo, devtok) = rest.split_once('/').ok_or_else(err)?;
            let (topo, partition) = match topo.strip_suffix(":2d") {
                Some(t) => (t, ClusterPartition::TwoD),
                None => (topo, ClusterPartition::OneD),
            };
            let (n, m) = topo.split_once('x').ok_or_else(err)?;
            let nodes = n.parse::<usize>().map_err(|_| err())?;
            let devices_per_node = m.parse::<usize>().map_err(|_| err())?;
            if nodes == 0 || devices_per_node == 0 {
                return Err(err());
            }
            let dev = device_for_token(devtok).ok_or_else(err)?;
            return Ok(Backend::Cluster {
                options: GpuOptions::new(dev),
                nodes,
                devices_per_node,
                partition,
            });
        }
        if let Some(dev) = device_for_token(s) {
            return Ok(Backend::Gpu(GpuOptions::new(dev)));
        }
        if let Some((tok, parts)) = s.split_once("/split:") {
            let dev = device_for_token(tok).ok_or_else(err)?;
            let parts = parts.parse::<usize>().map_err(|_| err())?;
            if parts == 0 {
                return Err(err());
            }
            return Ok(Backend::GpuSplit {
                options: GpuOptions::new(dev),
                parts,
            });
        }
        if let Some((n, tok)) = s.split_once('x') {
            let devices = n.parse::<usize>().map_err(|_| err())?;
            let dev = device_for_token(tok).ok_or_else(err)?;
            if devices == 0 {
                return Err(err());
            }
            return Ok(Backend::MultiGpu {
                options: GpuOptions::new(dev),
                devices,
            });
        }
        Err(err())
    }
}

/// A count plus where it came from and how long it took.
#[derive(Clone, Debug)]
pub struct TriangleCount {
    pub triangles: u64,
    pub backend: String,
    /// Host wall-clock seconds for CPU backends; modeled device wall time
    /// for simulated-GPU backends.
    pub seconds: f64,
    /// Full GPU report when a single simulated GPU ran.
    pub gpu: Option<GpuReport>,
    /// Per-phase profiler report, when the request asked for one
    /// ([`CountRequest::profile`]) and a simulated-GPU backend ran.
    pub profile: Option<ProfileReport>,
    /// Sanitizer findings/lints, when a GPU backend ran with the
    /// compute-sanitizer on (`None` otherwise).
    pub sanitizer: Option<SanitizerReport>,
    /// Static launch-verifier report, when a GPU backend ran with the
    /// verifier on (`None` otherwise).
    pub verifier: Option<VerifierReport>,
}

/// A triangle-count request: the backend plus per-request options, built
/// fluently and executed with [`CountRequest::run`].
///
/// ```
/// use tc_core::{Backend, CountRequest};
/// use tc_graph::EdgeArray;
///
/// // Two triangles sharing the edge (1, 2).
/// let g = EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// assert_eq!(CountRequest::new(Backend::CpuForward).run(&g).unwrap().triangles, 2);
///
/// // A profiled GPU run, with the graph named for error/report context.
/// let r = CountRequest::new(Backend::gpu_gtx980())
///     .profile(true)
///     .graph_name("diamond")
///     .run(&g)
///     .unwrap();
/// assert_eq!(r.triangles, 2);
/// assert!(r.profile.unwrap().span("count/count-kernel").is_some());
/// ```
///
/// A request is reusable: `run` borrows it, so one configured request can
/// serve many graphs.
#[derive(Clone, Debug, Default)]
pub struct CountRequest {
    backend: Backend,
    profile: bool,
    graph_name: Option<String>,
}

impl CountRequest {
    pub fn new(backend: Backend) -> Self {
        CountRequest {
            backend,
            profile: false,
            graph_name: None,
        }
    }

    /// Attach a per-phase [`ProfileReport`] to the result (simulated-GPU
    /// backends only; CPU backends have no device profiler).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Name the graph for error context and serving logs.
    pub fn graph_name(mut self, name: impl Into<String>) -> Self {
        self.graph_name = Some(name.into());
        self
    }

    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Count the triangles of `g`. Errors carry the graph name (if set) in
    /// their [`ErrorContext`].
    pub fn run(&self, g: &EdgeArray) -> Result<TriangleCount, CoreError> {
        self.dispatch(g).map_err(|e| {
            e.with_context(ErrorContext {
                graph: self.graph_name.clone(),
                ..Default::default()
            })
        })
    }

    fn dispatch(&self, g: &EdgeArray) -> Result<TriangleCount, CoreError> {
        let label = self.backend.label();
        match &self.backend {
            Backend::CpuForward => timed_cpu(label, || cpu::count_forward(g)),
            Backend::CpuEdgeIterator => timed_cpu(label, || cpu::count_edge_iterator(g)),
            Backend::CpuNodeIterator => timed_cpu(label, || cpu::count_node_iterator(g)),
            Backend::CpuForwardHashed => timed_cpu(label, || cpu::count_forward_hashed(g)),
            Backend::CpuParallel => timed_cpu(label, || cpu::count_forward_parallel(g)),
            Backend::CpuHybrid { threshold } => timed_cpu(label, || match threshold {
                Some(t) => cpu::count_hybrid(g, *t),
                None => cpu::count_hybrid_auto(g),
            }),
            Backend::Gpu(opts) => {
                let (report, profile) = if self.profile {
                    let (report, trace) = run_gpu_pipeline_profiled(g, opts)?;
                    (report, Some(trace.profile))
                } else {
                    (run_gpu_pipeline(g, opts)?, None)
                };
                Ok(TriangleCount {
                    triangles: report.triangles,
                    backend: label,
                    seconds: report.total_s,
                    sanitizer: report.sanitizer.clone(),
                    verifier: report.verifier.clone(),
                    gpu: Some(report),
                    profile,
                })
            }
            Backend::MultiGpu { options, devices } => {
                let (report, profile) = if self.profile {
                    let (report, traces) = run_multi_gpu_profiled(g, options, *devices)?;
                    (report, Some(merged_profile(&traces)))
                } else {
                    (run_multi_gpu(g, options, *devices)?, None)
                };
                Ok(TriangleCount {
                    triangles: report.triangles,
                    backend: label,
                    seconds: report.total_s,
                    sanitizer: report.sanitizer,
                    verifier: report.verifier,
                    gpu: None,
                    profile,
                })
            }
            Backend::GpuSplit { options, parts } => {
                let report = crate::gpu::split::count_split(g, options, *parts)?;
                Ok(TriangleCount {
                    triangles: report.triangles,
                    backend: label,
                    seconds: report.total_s,
                    sanitizer: report.sanitizer,
                    verifier: report.verifier,
                    gpu: None,
                    profile: self.profile.then_some(report.profile),
                })
            }
            Backend::Cluster {
                options,
                nodes,
                devices_per_node,
                partition,
            } => {
                let topology = ClusterTopology::new(*nodes, *devices_per_node);
                let (report, profile) = if self.profile {
                    let (report, traces) = run_cluster_profiled(g, options, topology, *partition)?;
                    (report, Some(merged_profile(&traces)))
                } else {
                    (run_cluster(g, options, topology, *partition)?, None)
                };
                Ok(TriangleCount {
                    triangles: report.triangles,
                    backend: label,
                    seconds: report.total_s,
                    sanitizer: report.sanitizer,
                    verifier: report.verifier,
                    gpu: None,
                    profile,
                })
            } // `Backend` is non_exhaustive for downstream crates; within
              // this crate the match stays exhaustive so a new variant is a
              // compile error here, not a runtime surprise.
        }
    }
}

fn timed_cpu<F>(label: String, f: F) -> Result<TriangleCount, CoreError>
where
    F: FnOnce() -> Result<u64, tc_graph::GraphError>,
{
    let start = Instant::now();
    let triangles = f()?;
    Ok(TriangleCount {
        triangles,
        backend: label,
        seconds: start.elapsed().as_secs_f64(),
        gpu: None,
        profile: None,
        sanitizer: None,
        verifier: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> EdgeArray {
        EdgeArray::from_undirected_pairs([
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 0),
            (4, 2),
        ])
    }

    #[test]
    fn all_backends_agree() {
        let g = fixture();
        let want = crate::verify::count_brute_force(&g);
        let backends = [
            Backend::CpuForward,
            Backend::CpuHybrid { threshold: None },
            Backend::CpuHybrid { threshold: Some(3) },
            Backend::GpuSplit {
                options: GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory()),
                parts: 3,
            },
            Backend::CpuEdgeIterator,
            Backend::CpuNodeIterator,
            Backend::CpuForwardHashed,
            Backend::CpuParallel,
            Backend::Gpu(GpuOptions::new(
                DeviceConfig::gtx_980().with_unlimited_memory(),
            )),
            Backend::MultiGpu {
                options: GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory()),
                devices: 2,
            },
        ];
        for b in backends {
            let label = b.label();
            let got = CountRequest::new(b).run(&g).unwrap().triangles;
            assert_eq!(got, want, "{label}");
        }
    }

    #[test]
    fn detailed_reports_carry_timing() {
        let g = fixture();
        let r = CountRequest::new(Backend::CpuForward).run(&g).unwrap();
        assert!(r.seconds >= 0.0);
        assert!(r.gpu.is_none());
        let r = CountRequest::new(Backend::Gpu(GpuOptions::new(
            DeviceConfig::gtx_980().with_unlimited_memory(),
        )))
        .run(&g)
        .unwrap();
        assert!(r.gpu.is_some());
        assert!(r.seconds > 0.0);
        assert!(r.profile.is_none(), "profiling is opt-in");
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(Backend::CpuForward.label(), "cpu-forward");
        assert!(Backend::gpu_gtx980().label().contains("GTX 980"));
        assert!(Backend::multi_gpu_c2050(4).label().starts_with("4x-"));
    }

    #[test]
    fn profiled_requests_attach_reports() {
        let g = fixture();
        let r = CountRequest::new(Backend::Gpu(GpuOptions::new(
            DeviceConfig::gtx_980().with_unlimited_memory(),
        )))
        .profile(true)
        .run(&g)
        .unwrap();
        let profile = r.profile.expect("GPU run with profile(true)");
        assert!(profile.span("preprocess").is_some());
        assert!(profile.span("count/count-kernel").is_some());
        // Multi-GPU profiles merge per-device reports.
        let r = CountRequest::new(Backend::MultiGpu {
            options: GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory()),
            devices: 2,
        })
        .profile(true)
        .run(&g)
        .unwrap();
        assert_eq!(r.profile.expect("multi-GPU profile").devices, 2);
    }

    #[test]
    fn run_errors_name_the_graph() {
        let g = fixture();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_memory_capacity(64));
        let err = CountRequest::new(Backend::Gpu(opts))
            .graph_name("fixture-graph")
            .run(&g)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("graph fixture-graph"), "{msg}");
        assert!(matches!(
            err.root(),
            CoreError::GraphTooLargeForDevice { .. }
        ));
    }

    #[test]
    fn backend_tokens_round_trip() {
        let canonical = [
            "forward",
            "edge-iterator",
            "node-iterator",
            "hashed",
            "parallel",
            "hybrid",
            "hybrid:32",
            "gtx980",
            "c2050",
            "nvs5200m",
            "4xc2050",
            "2xgtx980",
            "gtx980/split:3",
            "gtx980/balanced",
            "c2050/balanced:16x8",
            "nvs5200m/balanced:0x32",
            "4xc2050/balanced",
            "2xgtx980/balanced:100x4",
            "gtx980/split:3/balanced",
            "gtx980/balanced+hash",
            "4xc2050/balanced+hash",
            "gtx980/split:3/balanced+hash",
            "gtx980/reorder",
            "2xgtx980/reorder",
            "gtx980/split:3/reorder",
            "gtx980/balanced/reorder",
            "gtx980/balanced+hash/reorder",
            "c2050/balanced:16x8/reorder",
            "gtx980/sanitize",
            "nvs5200m/sanitize:paranoid",
            "4xc2050/sanitize",
            "gtx980/balanced/sanitize",
            "c2050/balanced:16x8/sanitize:paranoid",
            "gtx980/split:3/sanitize",
            "gtx980/split:3/balanced/sanitize",
            "gtx980/reorder/sanitize",
            "gtx980/balanced+hash/reorder/sanitize:paranoid",
            "cluster:1x1/gtx980",
            "cluster:2x2/gtx980",
            "cluster:4x2/c2050",
            "cluster:2x2:2d/gtx980",
            "cluster:2x2/gtx980/balanced",
            "cluster:2x2/gtx980/balanced+hash",
            "cluster:2x2:2d/c2050/balanced:16x8",
            "cluster:2x2/gtx980/reorder",
            "cluster:2x2/gtx980/sanitize",
            "cluster:2x2:2d/gtx980/balanced/reorder/sanitize:paranoid",
            "gtx980/verify",
            "nvs5200m/verify",
            "4xc2050/verify",
            "gtx980/split:3/verify",
            "gtx980/balanced/verify",
            "gtx980/balanced+hash/verify",
            "gtx980/reorder/verify",
            "gtx980/sanitize/verify",
            "gtx980/sanitize:paranoid/verify",
            "gtx980/balanced+hash/reorder/sanitize/verify",
            "c2050/balanced:16x8/reorder/sanitize:paranoid/verify",
            "cluster:2x2/gtx980/verify",
            "cluster:2x2:2d/gtx980/balanced/reorder/sanitize:paranoid/verify",
        ];
        for tok in canonical {
            let b: Backend = tok.parse().unwrap_or_else(|e| panic!("{tok}: {e}"));
            assert_eq!(b.to_string(), tok);
        }
        for bad in [
            "",
            "warp9",
            "hybrid:",
            "0xc2050",
            "3x",
            "gtx980/split:0",
            "xc2050",
            "forward/balanced",
            "hybrid/balanced",
            "gtx980/balanced:16",
            "gtx980/balanced:16x3",
            "gtx980/balanced:x8",
            "/balanced",
            "forward/sanitize",
            "gtx980/sanitize:off",
            "gtx980/sanitize:check",
            "gtx980/sanitizer",
            "gtx980/sanitize/balanced",
            "/sanitize",
            "forward/reorder",
            "gtx980/reorder:2",
            "gtx980/reordered",
            "gtx980/reorder/balanced",
            "gtx980/sanitize/reorder",
            "/reorder",
            "cluster:",
            "cluster:2x2",
            "cluster:0x2/gtx980",
            "cluster:2x0/gtx980",
            "cluster:2/gtx980",
            "cluster:2x2:3d/gtx980",
            "cluster:2x2/warp9",
            "cluster:axb/gtx980",
            "forward/verify",
            "gtx980/verify:paranoid",
            "gtx980/verified",
            "gtx980/verify/sanitize",
            "gtx980/verify/balanced",
            "gtx980/verify/reorder",
            "/verify",
        ] {
            assert!(bad.parse::<Backend>().is_err(), "{bad:?} must not parse");
        }
        // `/reorder` is part of the canonical token too: reordered and
        // plain runs must never share an engine cache entry.
        let reordered: Backend = "gtx980/reorder".parse().unwrap();
        assert_ne!(reordered.to_string(), "gtx980");
        assert!(reordered.label().contains("reorder"));
        // The scheduling knob is part of the canonical token — the engine's
        // cache key — so differently scheduled jobs can never collide.
        let plain: Backend = "gtx980".parse().unwrap();
        let balanced: Backend = "gtx980/balanced".parse().unwrap();
        assert_ne!(plain.to_string(), balanced.to_string());
        // So is the sanitizer mode: a sanitized run must never serve a
        // cached unsanitized entry (and vice versa).
        let sanitized: Backend = "gtx980/sanitize".parse().unwrap();
        assert_eq!(sanitized.sanitizer(), SanitizerMode::Check);
        assert_ne!(plain.to_string(), sanitized.to_string());
        let mut toggled = plain.clone();
        assert!(toggled.set_sanitizer(SanitizerMode::Paranoid));
        assert_eq!(toggled.to_string(), "gtx980/sanitize:paranoid");
        let mut cpu = Backend::CpuForward;
        assert!(!cpu.set_sanitizer(SanitizerMode::Check));
        // And the verifier toggle: a verified run's proofs (and skipped
        // racechecks) must not leak into an unverified cache entry.
        let verified: Backend = "gtx980/verify".parse().unwrap();
        assert!(verified.verify());
        assert_ne!(plain.to_string(), verified.to_string());
        let mut toggled_verify = plain;
        assert!(toggled_verify.set_verify(true));
        assert_eq!(toggled_verify.to_string(), "gtx980/verify");
        assert!(!cpu.set_verify(true));
        assert!(!Backend::CpuForward.verify());
        // Helper constructors print their canonical tokens.
        assert_eq!(Backend::gpu_gtx980().to_string(), "gtx980");
        assert_eq!(Backend::multi_gpu_c2050(4).to_string(), "4xc2050");
        assert_eq!(Backend::default().to_string(), "forward");
    }
}
