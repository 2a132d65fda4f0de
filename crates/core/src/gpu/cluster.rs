//! Sharded cluster counting: DistTC-style partition-aware ownership.
//!
//! The paper's multi-GPU scheme (§III-E, [`super::multi`]) broadcasts the
//! whole oriented CSR to every device, so the largest countable graph is
//! capped by *single-device* memory no matter how many cards participate.
//! Distributed triangle counters (DistTC, TRUST) scale past that by
//! *partitioning* edge ownership: each device holds only the arcs it owns
//! plus the boundary adjacency those arcs' intersections read.
//!
//! This module is that scheme on a simulated cluster
//! ([`tc_simt::cluster`]), one [`PreparedGraph`] per device:
//!
//! 1. the host orients the graph globally (the same degree order the GPU
//!    preprocessing produces, so per-arc counts are independent of the
//!    partition);
//! 2. the oriented arcs are split into one shard per device — 1D
//!    contiguous owner ranges or a 2D (owner, target) grid, both balanced
//!    by the scheduler's per-edge work estimate
//!    ([`crate::gpu::schedule::edge_work`]);
//! 3. each shard becomes a compact sub-CSR — local endpoint indices over
//!    the shard's referenced-vertex set, adjacency values kept *global* so
//!    intersections compare true vertex ids — and is uploaded to its
//!    device, crossing the modeled interconnect for nodes past the first;
//! 4. every device runs the existing merge / chunk-scan / hash kernels
//!    over its shard (per-shard bin plans reuse the same static tuner);
//! 5. the per-shard counts merge in flat device-index order, each remote
//!    shard charging one interconnect message — a fixed summation order,
//!    so the total is byte-identical across runs and worker counts.
//!
//! **Exactness.** Orientation happens once, globally, before partitioning;
//! the shards partition the oriented arc multiset. The forward algorithm's
//! per-arc count `|N⁺(u) ∩ N⁺(v)|` depends only on the two full adjacency
//! rows, which every owning shard replicates in full. Summing disjoint
//! per-arc counts therefore reproduces the single-device total exactly —
//! not approximately — whatever the topology.

use std::fmt;

use tc_graph::{Csr, EdgeArray, Orientation};
use tc_simt::cluster::charge_internode;
use tc_simt::profiler::{ProfileReport, RelSpan};
use tc_simt::{ClusterTopology, Device, KernelStats, LaunchTally};

use crate::count::GpuOptions;
use crate::error::{CoreError, ErrorContext};
use crate::gpu::pipeline::{GpuReport, RunTrace};
use crate::gpu::prepared::{Arrays, CountMark, PreparedCount, PreparedGraph};
use crate::gpu::preprocess::degree_ranks;
use crate::gpu::released_report;
use crate::gpu::schedule::{build_plan_from_host, Bin, BinPlan, Stripe};
use crate::gpu::EdgeLayout;

/// How the oriented arcs are split across the cluster's devices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterPartition {
    /// 1D: contiguous owner-vertex ranges, one per device, balanced by the
    /// per-edge work estimate. Low replication (each shard's owner rows
    /// appear exactly once cluster-wide) but boundary targets are
    /// replicated wherever they are referenced.
    #[default]
    OneD,
    /// 2D: an N×M grid — owner-vertex row blocks (one per node) × target-
    /// vertex column blocks (one per device within the node). Bounds the
    /// per-shard referenced-vertex set by a row block plus a column block,
    /// the classic 2D decomposition of DistTC-style counters.
    TwoD,
}

impl ClusterPartition {
    /// The backend-token suffix selecting this partition (`""` for the
    /// default 1D, `":2d"` for 2D).
    pub fn token_suffix(&self) -> &'static str {
        match self {
            ClusterPartition::OneD => "",
            ClusterPartition::TwoD => ":2d",
        }
    }

    /// Short lowercase label (`"1d"` / `"2d"`) for reports and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ClusterPartition::OneD => "1d",
            ClusterPartition::TwoD => "2d",
        }
    }
}

impl fmt::Display for ClusterPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One shard's host-side arrays, ready for upload.
struct HostShard {
    /// Local owner indices into the shard's referenced-vertex set.
    eu: Vec<u32>,
    /// Local target indices.
    ev: Vec<u32>,
    /// Local CSR offsets over the referenced vertices' full rows.
    node: Vec<u32>,
    /// Concatenated adjacency rows — values stay *global* vertex ids, so
    /// intersection-by-value is exact across shards.
    nbr: Vec<u32>,
    /// Per-arc work estimate (min endpoint out-degree), for the bin plan.
    work: Vec<u32>,
}

impl HostShard {
    fn arcs(&self) -> usize {
        self.eu.len()
    }

    fn total_work(&self) -> u64 {
        self.work.iter().map(|&w| w as u64).sum()
    }

    /// Upload the shard to `dev` on node `on_node`, each array crossing the
    /// interconnect first, then build its bin plan with the same static
    /// tuner and charged binning passes as the single-device plan. An
    /// untuned shard counts its arcs as one gathered merge bin, which
    /// launches nothing when the shard is empty.
    fn upload(
        &self,
        dev: &mut Device,
        on_node: usize,
        opts: &GpuOptions,
    ) -> Result<Arrays, CoreError> {
        let mut copy = |host: &[u32]| {
            let bytes = std::mem::size_of_val(host) as u64;
            charge_internode(dev, on_node, bytes, "internode: shard send");
            dev.htod_copy(host)
        };
        let eu = copy(&self.eu)?;
        let ev = copy(&self.ev)?;
        let node = copy(&self.node)?;
        let nbr = copy(&self.nbr)?;
        let plan = build_plan_from_host(dev, &self.eu, &self.ev, &self.work, opts.schedule)?;
        let (plan, held) = match plan {
            Some(plan) => (plan, vec![eu, ev, node, nbr]),
            None => {
                let whole = Bin {
                    start: 0,
                    len: self.arcs(),
                    width: 1,
                    hash: false,
                };
                let bins = vec![whole];
                (BinPlan { eu, ev, bins }, vec![node, nbr])
            }
        };
        Ok(Arrays {
            node,
            nbr,
            arcs: None,
            m: self.arcs(),
            plan: Some(plan),
            held,
        })
    }
}

/// Split `[0, n)` into `parts` contiguous blocks balanced by the prefix
/// weight array (`prefix[i]` = total weight of vertices `< i`). Returns
/// the `parts + 1` block starts. Deterministic: targets are exact integer
/// fractions of the total, boundaries their partition points.
fn balanced_blocks(prefix: &[u64], parts: usize) -> Vec<usize> {
    let n = prefix.len() - 1;
    let total = prefix[n];
    let mut starts = Vec::with_capacity(parts + 1);
    starts.push(0);
    for s in 1..parts {
        let target = total * s as u64 / parts as u64;
        starts.push(prefix.partition_point(|&x| x < target).min(n));
    }
    starts.push(n);
    starts
}

/// The block a vertex falls in, given the block starts.
#[inline]
fn block_of(starts: &[usize], v: u32) -> usize {
    starts.partition_point(|&b| b <= v as usize) - 1
}

/// Partition the oriented CSR into one [`HostShard`] per device.
fn build_shards(
    csr: &Csr,
    topology: ClusterTopology,
    partition: ClusterPartition,
) -> Vec<HostShard> {
    let n = csr.num_nodes();
    let shards_total = topology.num_devices();
    let deg = |v: u32| csr.degree(v);

    // Per-vertex work: the sum of this row's per-arc estimates — exactly
    // what the balanced scheduler bins by, reused at the partition level.
    let mut work_prefix = Vec::with_capacity(n + 1);
    work_prefix.push(0u64);
    let mut acc = 0u64;
    for u in 0..n as u32 {
        for &v in csr.neighbors(u) {
            acc += deg(u).min(deg(v)) as u64;
        }
        work_prefix.push(acc);
    }

    // The shard index of each arc.
    let shard_of: Box<dyn Fn(u32, u32) -> usize> = match partition {
        ClusterPartition::OneD => {
            let starts = balanced_blocks(&work_prefix, shards_total);
            Box::new(move |u, _v| block_of(&starts, u))
        }
        ClusterPartition::TwoD => {
            // Rows: owner blocks balanced by work, one per node. Columns:
            // target blocks balanced by oriented in-degree (arcs landing in
            // the block), one per device within a node.
            let row_starts = balanced_blocks(&work_prefix, topology.nodes);
            let mut indeg = vec![0u64; n];
            for &v in csr.targets() {
                indeg[v as usize] += 1;
            }
            let mut indeg_prefix = Vec::with_capacity(n + 1);
            indeg_prefix.push(0u64);
            let mut acc = 0u64;
            for d in indeg {
                acc += d;
                indeg_prefix.push(acc);
            }
            let col_starts = balanced_blocks(&indeg_prefix, topology.devices_per_node);
            let cols = topology.devices_per_node;
            Box::new(move |u, v| block_of(&row_starts, u) * cols + block_of(&col_starts, v))
        }
    };

    // Assign arcs in global CSR order (owner ascending, target ascending
    // within a row) — the shard arc order is a pure function of the graph.
    let mut arcs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards_total];
    for u in 0..n as u32 {
        for &v in csr.neighbors(u) {
            arcs[shard_of(u, v)].push((u, v));
        }
    }

    arcs.into_iter()
        .map(|list| {
            // Referenced vertices: every endpoint, sorted ascending by
            // global id — the shard's local id space.
            let mut verts: Vec<u32> = list.iter().flat_map(|&(u, v)| [u, v]).collect();
            verts.sort_unstable();
            verts.dedup();
            let local = |x: u32| verts.binary_search(&x).expect("endpoint in vertex set") as u32;
            let mut node = Vec::with_capacity(verts.len() + 1);
            node.push(0u32);
            let mut nbr = Vec::new();
            for &v in &verts {
                nbr.extend_from_slice(csr.neighbors(v));
                node.push(nbr.len() as u32);
            }
            let eu: Vec<u32> = list.iter().map(|&(u, _)| local(u)).collect();
            let ev: Vec<u32> = list.iter().map(|&(_, v)| local(v)).collect();
            let work: Vec<u32> = list.iter().map(|&(u, v)| deg(u).min(deg(v))).collect();
            HostShard {
                eu,
                ev,
                node,
                nbr,
                work,
            }
        })
        .collect()
}

/// A graph sharded across a simulated cluster, ready to serve counts —
/// one [`PreparedGraph`] per device, each holding its shard.
#[derive(Debug)]
pub struct PreparedCluster {
    shards: Vec<PreparedGraph>,
    topology: ClusterTopology,
    partition: ClusterPartition,
    per_shard_arcs: Vec<usize>,
    imbalance: f64,
    prepare_trace: Vec<RelSpan>,
}

/// The topology of a `nodes` × `devices_per_node` cluster backend. The
/// token parser rejects an empty grid, but an API-built backend can hold
/// one: that is a typed [`CoreError::InvalidBackend`], not a panic.
pub fn cluster_topology(
    nodes: usize,
    devices_per_node: usize,
) -> Result<ClusterTopology, CoreError> {
    if nodes == 0 || devices_per_node == 0 {
        return Err(CoreError::InvalidBackend(format!(
            "a {nodes}x{devices_per_node} cluster has no devices"
        )));
    }
    Ok(ClusterTopology::new(nodes, devices_per_node))
}

/// The trace-thread name of the cluster's device `i`: `node<n>/gpu<i>`.
fn trace_name(topology: ClusterTopology, i: usize, dev: &Device) -> String {
    let node = topology.node_of(i);
    format!("node{node}/gpu{i} ({})", dev.config().name)
}

impl PreparedCluster {
    /// Shard `g` across a fresh `topology.num_devices()`-device cluster:
    /// orient globally on the host, partition the oriented arcs, and build
    /// each shard on its own device (`PreparedGraph::upload`: uploads
    /// crossing the modeled interconnect for nodes past the first, then
    /// the shard's bin plan).
    pub fn prepare(
        g: &EdgeArray,
        opts: &GpuOptions,
        topology: ClusterTopology,
        partition: ClusterPartition,
    ) -> Result<PreparedCluster, CoreError> {
        if opts.layout != EdgeLayout::SoA {
            return Err(CoreError::InvalidBackend(
                "the cluster path dispatches gathered endpoint arrays (SoA only)".into(),
            ));
        }

        // ---- global orientation on the host ----
        // The cluster front-end plays DistTC's distributed loader: the
        // orientation (and the optional degree-descending relabel) happens
        // once, host-side, before any shard exists — so every shard
        // partitions the *same* oriented arc multiset and per-arc counts
        // cannot depend on the topology. The modeled device window starts
        // at the shard uploads.
        let orient = if opts.reorder {
            let (ranks, _) = degree_ranks(&g.degrees());
            Orientation::forward_with_ranks(g, &ranks)?
        } else {
            Orientation::forward(g)?
        };
        let host_shards = build_shards(&orient.csr, topology, partition);
        let per_shard_arcs: Vec<usize> = host_shards.iter().map(HostShard::arcs).collect();
        let shard_works: Vec<u64> = host_shards.iter().map(HostShard::total_work).collect();
        let total_work: u64 = shard_works.iter().sum();
        let imbalance = if total_work == 0 {
            1.0
        } else {
            let mean = total_work as f64 / shard_works.len() as f64;
            shard_works.iter().copied().max().unwrap_or(0) as f64 / mean
        };

        // ---- per-shard upload + schedule ----
        let digest = g.digest();
        let shards = host_shards
            .iter()
            .enumerate()
            .map(|(i, hs)| {
                let upload = |dev: &mut Device| hs.upload(dev, topology.node_of(i), opts);
                let shard = PreparedGraph::upload(opts, digest, "shard-partition", upload);
                shard.map_err(|e| {
                    e.with_context(ErrorContext {
                        device: Some(format!(
                            "{} (node {}, device {i})",
                            opts.device.name,
                            topology.node_of(i)
                        )),
                        phase: Some("shard-partition".into()),
                        ..Default::default()
                    })
                })
            })
            .collect::<Result<Vec<PreparedGraph>, CoreError>>()?;

        let prepare_trace = shards
            .iter()
            .flat_map(|shard| shard.prepare_trace().iter().cloned())
            .collect();
        Ok(PreparedCluster {
            shards,
            topology,
            partition,
            per_shard_arcs,
            imbalance,
            prepare_trace,
        })
    }

    /// Run the counting phase: every shard counts through the same
    /// `PreparedGraph::count_stripe` as a single device (its bin plan,
    /// or one gathered launch; nothing on an empty shard) under
    /// `shard-count`, then sends its partial to the merge in flat
    /// device-index order. The count's trace holds each shard's
    /// `shard-count/...` and `internode-merge` spans, flat device order.
    pub fn count(&mut self) -> Result<PreparedCount, CoreError> {
        let mut triangles = 0u64;
        let mut slowest: Option<KernelStats> = None;
        let mut per_shard_s = Vec::with_capacity(self.shards.len());
        let mut profiles = Vec::with_capacity(self.shards.len());
        let mut trace = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let mark = CountMark::of(shard.device());
            let (t, stats) = shard.count_stripe("shard-count", "shard", Stripe::WHOLE)?;
            // Deterministic merge: partials sum in flat device-index order
            // (u64 addition is associative, but the fixed order keeps the
            // *protocol* — and so every charged message — identical across
            // runs and worker counts).
            triangles += t;
            if let Some(stats) = stats {
                if slowest.as_ref().is_none_or(|sl| stats.time_s > sl.time_s) {
                    slowest = Some(stats);
                }
            }
            // The merge: a shard off node 0 sends its 8-byte partial over
            // the interconnect (one message; latency-dominated). Then the
            // shard's window, clock-base-free like the single-device path.
            let node = self.topology.node_of(i);
            shard.device_mut().with_phase("internode-merge", |dev| {
                charge_internode(dev, node, 8, "internode: result send")
            });
            let (seconds, profile, spans) = mark.window(shard.device());
            per_shard_s.push(seconds);
            profiles.push(profile);
            trace.extend(spans);
        }
        let count_s = per_shard_s.iter().copied().fold(0.0, f64::max);
        Ok(PreparedCount {
            triangles,
            count_s,
            per_shard_s,
            kernel: slowest.unwrap_or_default(),
            profile: ProfileReport::merged(&profiles),
            trace,
        })
    }

    /// Free every shard and hand back its device, flat device order — the
    /// way [`PreparedGraph::release`] returns its device.
    pub fn release(self) -> Result<Vec<Device>, CoreError> {
        self.shards
            .into_iter()
            .map(PreparedGraph::release)
            .collect()
    }

    /// Content digest of the sharded graph (cache key material).
    #[inline]
    pub fn digest(&self) -> u64 {
        self.shards[0].digest()
    }

    /// Modeled seconds of the shard-partition window (uploads + interconnect
    /// + per-shard bin plans; the slowest device).
    #[inline]
    pub fn prepare_s(&self) -> f64 {
        let shards = self.shards.iter();
        shards.map(PreparedGraph::prepare_s).fold(0.0, f64::max)
    }

    /// The prepare window's spans (`shard-partition` and children) across
    /// every shard, flat device order, on a clock-base-free timeline.
    #[inline]
    pub fn prepare_trace(&self) -> &[RelSpan] {
        &self.prepare_trace
    }

    /// How many counts this cluster session has served.
    #[inline]
    pub fn counts_served(&self) -> u64 {
        self.shards[0].counts_served()
    }

    /// Launches simulated and replayed, summed over the cluster's devices.
    pub fn launch_tally(&self) -> LaunchTally {
        self.shards.iter().map(PreparedGraph::launch_tally).sum()
    }

    /// The cluster's shape.
    #[inline]
    pub fn topology(&self) -> ClusterTopology {
        self.topology
    }

    /// The partition scheme in force.
    #[inline]
    pub fn partition(&self) -> ClusterPartition {
        self.partition
    }

    /// Oriented arcs per shard, flat device order.
    #[inline]
    pub fn per_shard_arcs(&self) -> &[usize] {
        &self.per_shard_arcs
    }

    /// Max shard work over mean shard work (1.0 = perfectly balanced).
    #[inline]
    pub fn imbalance(&self) -> f64 {
        self.imbalance
    }

    /// The largest per-device peak memory footprint in bytes — the
    /// capacity each card of this topology would need.
    pub fn max_resident_bytes(&self) -> u64 {
        let peaks = self.shards.iter().map(|shard| shard.device().mem_peak());
        peaks.max().unwrap_or(0)
    }

    /// Per-device traces (for `--trace` / `--profile` on cluster runs).
    pub fn run_traces(&self) -> Vec<RunTrace> {
        let devs = self.shards.iter().map(PreparedGraph::device).enumerate();
        devs.map(|(i, dev)| RunTrace::of(dev, trace_name(self.topology, i, dev)))
            .collect()
    }
}

/// One-shot cluster run: prepare, one count, release. The report's
/// preprocessing is the shard-partition window, its count the slowest
/// shard's count window, and it carries one [`RunTrace`] per device (trace
/// threads `node0/gpu0`, `node0/gpu1`, …).
pub(crate) fn run(
    g: &EdgeArray,
    opts: &GpuOptions,
    topology: ClusterTopology,
    partition: ClusterPartition,
) -> Result<GpuReport, CoreError> {
    let mut prepared = PreparedCluster::prepare(g, opts, topology, partition)?;
    let count = prepared.count()?;
    let prepare_s = prepared.prepare_s();
    let devs = prepared.release()?;
    Ok(released_report(
        &devs,
        |i, dev| trace_name(topology, i, dev),
        count.triangles,
        prepare_s,
        count.count_s,
        count.kernel,
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::count_forward;
    use tc_simt::DeviceConfig;

    fn skewed_graph() -> EdgeArray {
        // A hub-heavy graph: enough skew that the balanced tuner engages.
        let mut pairs = Vec::new();
        for a in 0..64u32 {
            for b in (a + 1)..64 {
                if (a * 5 + b * 3) % 4 != 1 {
                    pairs.push((a, b));
                }
            }
        }
        for t in 64..160u32 {
            pairs.push((0, t));
            pairs.push((1, t));
        }
        EdgeArray::from_undirected_pairs(pairs)
    }

    fn opts() -> GpuOptions {
        GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory())
    }

    #[test]
    fn cluster_counts_match_cpu_across_topologies_and_partitions() {
        let g = skewed_graph();
        let want = count_forward(&g).unwrap();
        for (n, m) in [(1, 1), (1, 4), (2, 2), (4, 2)] {
            for partition in [ClusterPartition::OneD, ClusterPartition::TwoD] {
                let topology = ClusterTopology::new(n, m);
                let mut prepared =
                    PreparedCluster::prepare(&g, &opts(), topology, partition).unwrap();
                let count = prepared.count().unwrap();
                assert_eq!(count.triangles, want, "{n}x{m} {partition}");
                assert_eq!(
                    prepared.per_shard_arcs().iter().sum::<usize>(),
                    g.num_edges()
                );
                assert!(prepared.imbalance() >= 1.0);
                prepared.release().unwrap();
            }
        }
    }

    #[test]
    fn sharding_shrinks_the_per_device_footprint() {
        let g = skewed_graph();
        let one = run(
            &g,
            &opts(),
            ClusterTopology::new(1, 1),
            ClusterPartition::OneD,
        )
        .unwrap();
        let four = run(
            &g,
            &opts(),
            ClusterTopology::new(2, 2),
            ClusterPartition::OneD,
        )
        .unwrap();
        assert!(
            four.peak_device_bytes < one.peak_device_bytes,
            "2x2 peak {} !< 1x1 peak {}",
            four.peak_device_bytes,
            one.peak_device_bytes
        );
    }

    #[test]
    fn remote_nodes_pay_the_interconnect() {
        let g = skewed_graph();
        // Same shard layout, different node placement: 1x2 keeps both
        // devices on node 0, 2x1 puts the second shard across the wire.
        let local = run(
            &g,
            &opts(),
            ClusterTopology::new(1, 2),
            ClusterPartition::OneD,
        )
        .unwrap();
        let remote = run(
            &g,
            &opts(),
            ClusterTopology::new(2, 1),
            ClusterPartition::OneD,
        )
        .unwrap();
        assert_eq!(local.triangles, remote.triangles);
        assert!(
            remote.preprocess_s > local.preprocess_s,
            "crossing nodes must charge the interconnect: {} !> {}",
            remote.preprocess_s,
            local.preprocess_s
        );
    }

    #[test]
    fn prepared_cluster_serves_identical_repeated_counts() {
        let g = skewed_graph();
        let mut prepared = PreparedCluster::prepare(
            &g,
            &opts(),
            ClusterTopology::new(2, 2),
            ClusterPartition::OneD,
        )
        .unwrap();
        let first = prepared.count().unwrap();
        let second = prepared.count().unwrap();
        assert_eq!(first.triangles, second.triangles);
        assert_eq!(first.count_s, second.count_s);
        assert_eq!(first.per_shard_s, second.per_shard_s);
        assert_eq!(first.trace, second.trace);
        assert_eq!(prepared.counts_served(), 2);
        prepared.release().unwrap();
    }

    #[test]
    fn balanced_and_hash_schedules_shard_exactly() {
        let g = skewed_graph();
        let want = count_forward(&g).unwrap();
        let dev = DeviceConfig::gtx_980().with_unlimited_memory();
        for o in [
            GpuOptions::balanced(dev.clone()),
            GpuOptions::balanced_hash(dev),
        ] {
            for partition in [ClusterPartition::OneD, ClusterPartition::TwoD] {
                let report = run(&g, &o, ClusterTopology::new(2, 2), partition).unwrap();
                assert_eq!(report.triangles, want, "{} {partition}", o.schedule);
            }
        }
    }

    #[test]
    fn reorder_is_count_invariant_on_clusters() {
        let g = skewed_graph();
        let want = count_forward(&g).unwrap();
        let mut o = opts();
        o.reorder = true;
        let report = run(&g, &o, ClusterTopology::new(2, 2), ClusterPartition::TwoD).unwrap();
        assert_eq!(report.triangles, want);
    }

    #[test]
    fn empty_graph_shards_to_zero() {
        let mut prepared = PreparedCluster::prepare(
            &EdgeArray::default(),
            &opts(),
            ClusterTopology::new(2, 2),
            ClusterPartition::OneD,
        )
        .unwrap();
        assert_eq!(prepared.count().unwrap().triangles, 0);
        assert_eq!(prepared.imbalance(), 1.0);
        prepared.release().unwrap();
    }

    fn triangle() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2)])
    }

    #[test]
    fn empty_shards_launch_nothing() {
        // Vertex 0 owns both heavy arcs, so a 1x4 grid leaves the first
        // three shards empty. Unlike an empty single-device graph, which
        // still launches once, an empty shard launches no kernel at all.
        let topology = ClusterTopology::new(1, 4);
        let report = run(&triangle(), &opts(), topology, ClusterPartition::OneD).unwrap();
        assert_eq!(report.triangles, 1);
        let launches: Vec<Vec<&str>> = report
            .traces
            .iter()
            .map(|t| {
                let labels = t.log.iter().map(|op| op.label.as_str());
                labels.filter(|l| l.starts_with("CountTriangles")).collect()
            })
            .collect();
        assert_eq!(
            launches,
            [vec![], vec![], vec![], vec!["CountTriangles(shard)"]]
        );
    }

    #[test]
    fn shard_errors_name_the_device_node_and_phase() {
        let g = triangle();
        let topology = ClusterTopology::new(2, 2);
        let roomy =
            PreparedCluster::prepare(&g, &opts(), topology, ClusterPartition::OneD).unwrap();
        let empty_peak = roomy.shards[0].device().mem_peak();
        assert!(roomy.shards[3].device().mem_peak() > empty_peak);
        roomy.release().unwrap();
        // Room for an empty shard, not for device 3's, which holds the arcs.
        let tight = GpuOptions::new(DeviceConfig::gtx_980().with_memory_capacity(empty_peak));
        let err =
            PreparedCluster::prepare(&g, &tight, topology, ClusterPartition::OneD).unwrap_err();
        let context = err.context().expect("shard errors carry context");
        assert_eq!(
            context.device.as_deref(),
            Some("GTX 980 (node 1, device 3)")
        );
        assert_eq!(context.phase.as_deref(), Some("shard-partition"));
        assert!(
            matches!(
                err.root(),
                CoreError::Device(tc_simt::SimtError::OutOfMemory { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn balanced_blocks_cover_and_order() {
        let prefix: Vec<u64> = vec![0, 5, 5, 10, 30, 31];
        let starts = balanced_blocks(&prefix, 3);
        assert_eq!(starts.first(), Some(&0));
        assert_eq!(starts.last(), Some(&5));
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        for v in 0..5u32 {
            let b = block_of(&starts, v);
            assert!(b < 3);
            assert!(starts[b] <= v as usize && (v as usize) < starts[b + 1].max(starts[b] + 1));
        }
    }
}
