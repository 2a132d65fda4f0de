//! The front door: build a [`CountRequest`], get a count.

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use tc_graph::EdgeArray;
use tc_simt::{DeviceConfig, LaunchConfig, SanitizerMode, SanitizerReport, VerifierReport};

use crate::cpu;
use crate::error::{CoreError, ErrorContext};
use crate::gpu::cluster::ClusterPartition;
use crate::gpu::{self, EdgeLayout, GpuReport, KernelSchedule, LoopVariant};

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
    /// Workload-balanced kernel scheduling (degree-binned dispatch; the
    /// default is the paper's thread-per-edge mapping).
    pub schedule: KernelSchedule,
    /// Degree-descending vertex reordering before orientation (TRUST-style
    /// relabeling; a pure layout change — counts are unaffected).
    pub reorder: bool,
    /// Compute-sanitizer mode for the run (memcheck/initcheck/racecheck
    /// over the simulated memory path; `Off` is a true no-op), installed
    /// on every device of the run.
    pub sanitizer: SanitizerMode,
    /// Static kernel-launch verifier: prove every launch's declared access
    /// contract in-bounds and race-free before it runs, and check analytic
    /// host passes against the allocation map. Host-side only — modeled
    /// time is untouched. Switched on or off on every device of the run.
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

    /// The counting launch geometry on `device`: the override or the
    /// paper's tuned launch, with §III-D5's reduced-warp trick multiplying
    /// the blocks so the active lane count stays constant.
    pub(crate) fn launch_config(&self, device: &DeviceConfig) -> LaunchConfig {
        let lc = self.launch.unwrap_or_else(|| device.paper_launch());
        LaunchConfig {
            blocks: lc.blocks * self.warp_split,
            threads_per_block: lc.threads_per_block,
            warp_split: self.warp_split,
        }
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

    /// `n` simulated Tesla C2050s (the paper's 4-GPU rig).
    pub fn multi_gpu_c2050(devices: usize) -> Self {
        Backend::MultiGpu {
            options: GpuOptions::new(DeviceConfig::tesla_c2050()),
            devices,
        }
    }

    /// The simulated-GPU options of any GPU topology (`None` for CPU
    /// backends) — the one place every per-run knob is read.
    pub(crate) fn gpu_options(&self) -> Option<&GpuOptions> {
        match self {
            Backend::Gpu(o)
            | Backend::MultiGpu { options: o, .. }
            | Backend::GpuSplit { options: o, .. }
            | Backend::Cluster { options: o, .. } => Some(o),
            _ => None,
        }
    }

    /// Mutable access to the simulated-GPU options, for setting knobs.
    pub(crate) fn gpu_options_mut(&mut self) -> Option<&mut GpuOptions> {
        match self {
            Backend::Gpu(o)
            | Backend::MultiGpu { options: o, .. }
            | Backend::GpuSplit { options: o, .. }
            | Backend::Cluster { options: o, .. } => Some(o),
            _ => None,
        }
    }

    /// Whether timings from this backend are *modeled* (simulated-device
    /// seconds, deterministic across runs and hosts) rather than measured
    /// host wall time. Telemetry classes modeled timings as deterministic
    /// metrics; host-measured CPU timings go in the advisory section.
    pub fn is_modeled(&self) -> bool {
        self.gpu_options().is_some()
    }

    /// The backend's sanitizer mode (`Off` for CPU backends).
    pub fn sanitizer(&self) -> SanitizerMode {
        self.gpu_options()
            .map_or(SanitizerMode::Off, |o| o.sanitizer)
    }

    /// Whether the backend runs the static launch verifier (`false` for
    /// CPU backends).
    pub fn verify(&self) -> bool {
        self.gpu_options().is_some_and(|o| o.verify)
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
        let dev = |o: &GpuOptions| match device_token(o.device.name) {
            Some(tok) => tok.to_string(),
            None => format!("gpu:{}", o.device.name),
        };
        // Every GPU form ends in the same option clauses, in grammar order.
        let opts = |o: &GpuOptions| {
            let sanitize = match o.sanitizer {
                SanitizerMode::Off => "",
                SanitizerMode::Check => "/sanitize",
                SanitizerMode::Paranoid => "/sanitize:paranoid",
            };
            let reorder = if o.reorder { "/reorder" } else { "" };
            let verify = if o.verify { "/verify" } else { "" };
            format!("{}{reorder}{sanitize}{verify}", o.schedule.token_suffix())
        };
        match self {
            Backend::CpuForward => f.write_str("forward"),
            Backend::CpuEdgeIterator => f.write_str("edge-iterator"),
            Backend::CpuNodeIterator => f.write_str("node-iterator"),
            Backend::CpuForwardHashed => f.write_str("hashed"),
            Backend::CpuParallel => f.write_str("parallel"),
            Backend::CpuHybrid { threshold: None } => f.write_str("hybrid"),
            Backend::CpuHybrid { threshold: Some(t) } => write!(f, "hybrid:{t}"),
            Backend::Gpu(o) => write!(f, "{}{}", dev(o), opts(o)),
            Backend::MultiGpu {
                options: o,
                devices,
            } => write!(f, "{devices}x{}{}", dev(o), opts(o)),
            Backend::GpuSplit { options: o, parts } => {
                write!(f, "{}/split:{parts}{}", dev(o), opts(o))
            }
            Backend::Cluster {
                options: o,
                nodes,
                devices_per_node,
                partition,
            } => write!(
                f,
                "cluster:{nodes}x{devices_per_node}{}/{}{}",
                partition.token_suffix(),
                dev(o),
                opts(o)
            ),
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
            backend.gpu_options_mut().ok_or_else(err)?.verify = true;
            return Ok(backend);
        }
        // Then the sanitizer suffix — last before `/verify` in every
        // canonical GPU token (`gtx980/sanitize`,
        // `2xc2050/balanced:16x8/sanitize:paranoid`, …).
        if let Some(pos) = s.find("/sanitize") {
            let mode = parse_sanitize_clause(&s[pos + 1..]).ok_or_else(err)?;
            let mut backend: Backend = s[..pos].parse().map_err(|_| err())?;
            backend.gpu_options_mut().ok_or_else(err)?.sanitizer = mode;
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
            backend.gpu_options_mut().ok_or_else(err)?.reorder = true;
            return Ok(backend);
        }
        // Then the scheduling suffix: it composes with every GPU form
        // (`gtx980/balanced`, `2xc2050/balanced:16x8`, …).
        if let Some(pos) = s.find("/balanced") {
            let schedule = KernelSchedule::parse_clause(&s[pos + 1..]).ok_or_else(err)?;
            let mut backend: Backend = s[..pos].parse().map_err(|_| err())?;
            backend.gpu_options_mut().ok_or_else(err)?.schedule = schedule;
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
    /// The backend's canonical token (its `Display` form).
    pub backend: String,
    /// Host wall-clock seconds for CPU backends; modeled device wall time
    /// for simulated-GPU backends.
    pub seconds: f64,
    /// The full report of a simulated-GPU run, on every GPU topology
    /// (`None` for CPU backends).
    pub gpu: Option<GpuReport>,
    /// Sanitizer findings/lints, when a GPU backend ran with the
    /// compute-sanitizer on (`None` otherwise).
    pub sanitizer: Option<SanitizerReport>,
    /// Static launch-verifier report, when a GPU backend ran with the
    /// verifier on (`None` otherwise).
    pub verifier: Option<VerifierReport>,
}

/// A triangle-count request: the backend plus per-request options, built
/// fluently and executed with [`CountRequest::run`] — the one-shot entry
/// point for every backend.
///
/// ```
/// use tc_core::{Backend, CountRequest};
/// use tc_graph::EdgeArray;
///
/// // Two triangles sharing the edge (1, 2).
/// let g = EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// assert_eq!(CountRequest::new(Backend::CpuForward).run(&g).unwrap().triangles, 2);
///
/// // A GPU run, with the graph named for error/report context: its report
/// // carries the per-phase profile.
/// let r = CountRequest::new(Backend::gpu_gtx980())
///     .graph_name("diamond")
///     .run(&g)
///     .unwrap();
/// assert_eq!(r.triangles, 2);
/// assert!(r.gpu.unwrap().profile.span("count/count-kernel").is_some());
/// ```
///
/// A request is reusable: `run` borrows it, so one configured request can
/// serve many graphs.
#[derive(Clone, Debug, Default)]
pub struct CountRequest {
    backend: Backend,
    graph_name: Option<String>,
}

impl CountRequest {
    pub fn new(backend: Backend) -> Self {
        CountRequest {
            backend,
            graph_name: None,
        }
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
        let backend = self.backend.to_string();
        let start = Instant::now();
        let triangles = match &self.backend {
            Backend::CpuForward => cpu::count_forward(g),
            Backend::CpuEdgeIterator => cpu::count_edge_iterator(g),
            Backend::CpuNodeIterator => cpu::count_node_iterator(g),
            Backend::CpuForwardHashed => cpu::count_forward_hashed(g),
            Backend::CpuParallel => cpu::count_forward_parallel(g),
            Backend::CpuHybrid { threshold: Some(t) } => cpu::count_hybrid(g, *t),
            Backend::CpuHybrid { threshold: None } => cpu::count_hybrid_auto(g),
            gpu_backend => {
                let r = gpu::run(g, gpu_backend)?;
                return Ok(TriangleCount {
                    triangles: r.triangles,
                    backend,
                    seconds: r.total_s,
                    sanitizer: r.sanitizer.clone(),
                    verifier: r.verifier.clone(),
                    gpu: Some(r),
                });
            }
        }?;
        Ok(TriangleCount {
            triangles,
            backend,
            seconds: start.elapsed().as_secs_f64(),
            gpu: None,
            sanitizer: None,
            verifier: None,
        })
    }
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
            let token = b.to_string();
            let got = CountRequest::new(b).run(&g).unwrap().triangles;
            assert_eq!(got, want, "{token}");
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
        assert_eq!(r.gpu.unwrap().total_s, r.seconds);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn impossible_backends_are_typed_errors() {
        let g = fixture();
        let opts = || GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let mut aos = opts();
        aos.layout = EdgeLayout::AoS;
        let cluster = |options, nodes, devices_per_node| Backend::Cluster {
            options,
            nodes,
            devices_per_node,
            partition: ClusterPartition::OneD,
        };
        for backend in [
            Backend::MultiGpu {
                options: opts(),
                devices: 0,
            },
            Backend::GpuSplit {
                options: opts(),
                parts: 0,
            },
            cluster(opts(), 0, 2),
            cluster(opts(), 2, 0),
            Backend::MultiGpu {
                options: aos.clone(),
                devices: 2,
            },
            cluster(aos, 2, 2),
        ] {
            let err = CountRequest::new(backend.clone())
                .graph_name("fixture")
                .run(&g)
                .unwrap_err();
            assert!(
                matches!(err.root(), CoreError::InvalidBackend(_)),
                "{backend}: {err}"
            );
            assert!(err.to_string().contains("graph fixture"), "{err}");
        }
    }

    #[test]
    fn gpu_reports_carry_profiles() {
        let g = fixture();
        let r = CountRequest::new(Backend::Gpu(GpuOptions::new(
            DeviceConfig::gtx_980().with_unlimited_memory(),
        )))
        .run(&g)
        .unwrap();
        let profile = r.gpu.expect("GPU runs report").profile;
        assert!(profile.span("preprocess").is_some());
        assert!(profile.span("count/count-kernel").is_some());
        // Multi-GPU profiles merge per-device reports.
        let r = CountRequest::new(Backend::MultiGpu {
            options: GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory()),
            devices: 2,
        })
        .run(&g)
        .unwrap();
        assert_eq!(r.gpu.expect("multi-GPU runs report").profile.devices, 2);
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

    /// Every canonical backend token: each must round-trip through
    /// `from_str` / `Display`.
    const CANONICAL: [&str; 60] = [
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

    #[test]
    fn backend_tokens_round_trip() {
        for tok in CANONICAL {
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
        let paranoid: Backend = "gtx980/sanitize:paranoid".parse().unwrap();
        assert_eq!(paranoid.sanitizer(), SanitizerMode::Paranoid);
        assert_eq!(paranoid.to_string(), "gtx980/sanitize:paranoid");
        assert_eq!(Backend::CpuForward.sanitizer(), SanitizerMode::Off);
        // And the verifier toggle: a verified run's proofs (and skipped
        // racechecks) must not leak into an unverified cache entry.
        let verified: Backend = "gtx980/verify".parse().unwrap();
        assert!(verified.verify());
        assert_ne!(plain.to_string(), verified.to_string());
        assert_eq!(verified.to_string(), "gtx980/verify");
        assert!(!Backend::CpuForward.verify());
        // Helper constructors print their canonical tokens.
        assert_eq!(Backend::gpu_gtx980().to_string(), "gtx980");
        assert_eq!(Backend::multi_gpu_c2050(4).to_string(), "4xc2050");
        assert_eq!(Backend::default().to_string(), "forward");
    }
}
