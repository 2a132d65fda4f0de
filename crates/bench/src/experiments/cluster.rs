//! Cluster-sharding ablation: topology × partition scheme.
//!
//! For every suite graph this experiment runs the sharded cluster engine
//! on GTX 980 grids of growing size — 1×1 (the single-device analog),
//! 2×2, and 4×2 — under both the 1D owner-range partition and the 2D
//! owner × target grid, with the workload-balanced schedule on every
//! shard. Each cell reports the modeled wall time, the per-device peak
//! resident bytes, and the shard-work imbalance.
//!
//! Exactness criterion: the orientation happens once, host-side, before
//! any shard exists, so every topology × partition cell counts the same
//! oriented arc multiset — `run` asserts every cell's triangle count is
//! byte-identical to a single-device [`PreparedGraph`] run.
//!
//! Shape criterion: sharding exists to shrink the per-card footprint. On
//! every graph big enough for the boundary replication to amortize
//! (≥ [`PEAK_ASSERT_MIN_ARCS`] oriented arcs), the per-device peak must
//! *strictly decrease* along 1×1 → 2×2 → 4×2. Smaller graphs keep their
//! cells in the table but skip the monotonicity assert: replicated
//! boundary rows can dominate a tiny shard.

use tc_core::count::GpuOptions;
use tc_core::gpu::prepared::PreparedGraph;
use tc_core::{ClusterPartition, PreparedCluster};
use tc_gen::suite::full_suite_seeded;
use tc_simt::{ClusterTopology, DeviceConfig};

use crate::report::{ratio, Table};

use super::ExpConfig;

/// Below this many oriented arcs the strict peak-shrink assert is skipped
/// (boundary replication can dominate a tiny shard).
pub const PEAK_ASSERT_MIN_ARCS: usize = 4096;

/// The topology ladder every graph climbs.
const TOPOLOGIES: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 2)];

/// One graph × topology × partition cell.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    /// Oriented arcs (= undirected edges).
    pub m: usize,
    pub nodes: usize,
    pub devices_per_node: usize,
    /// `"1d"` or `"2d"`.
    pub partition: String,
    pub triangles: u64,
    /// Modeled wall time: shard-partition + slowest shard's count window.
    pub total_ms: f64,
    /// The slowest shard's count window alone.
    pub count_ms: f64,
    /// Largest shard, in oriented arcs.
    pub max_shard_arcs: usize,
    /// Largest per-device peak resident bytes — the per-card capacity
    /// this topology needs.
    pub max_resident_bytes: u64,
    /// Max shard work over mean shard work (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl Row {
    pub fn topology(&self) -> String {
        format!("{}x{}", self.nodes, self.devices_per_node)
    }
}

/// Run the topology × partition ladder on every suite graph. Panics if
/// any cell's count disagrees with the single-device run, or if the
/// per-device peak fails to shrink on a graph past the assert threshold.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let device = DeviceConfig::gtx_980().with_unlimited_memory();
    let mut rows = Vec::new();
    for item in full_suite_seeded(cfg.scale, cfg.seed) {
        let opts = GpuOptions::balanced(device.clone());

        // Single-device golden: same schedule, no sharding.
        let mut prepared = PreparedGraph::prepare(&item.graph, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", item.name));
        let golden = prepared
            .count()
            .unwrap_or_else(|e| panic!("{}: {e}", item.name))
            .triangles;
        let m = prepared.m_oriented();
        prepared.release().unwrap();

        let mut peaks_1d = Vec::new();
        for (nodes, devices_per_node) in TOPOLOGIES {
            for partition in [ClusterPartition::OneD, ClusterPartition::TwoD] {
                if (nodes, devices_per_node) == (1, 1) && partition == ClusterPartition::TwoD {
                    // One shard: 1D and 2D coincide; keep one cell.
                    continue;
                }
                let topology = ClusterTopology::new(nodes, devices_per_node);
                let mut session = PreparedCluster::prepare(&item.graph, &opts, topology, partition)
                    .unwrap_or_else(|e| panic!("{}: {e}", item.name));
                let count = session
                    .count()
                    .unwrap_or_else(|e| panic!("{}: {e}", item.name));
                assert_eq!(
                    count.triangles, golden,
                    "{}: {nodes}x{devices_per_node} {partition} disagrees with single-device",
                    item.name
                );
                let max_resident_bytes = session.max_resident_bytes();
                if partition == ClusterPartition::OneD {
                    peaks_1d.push(max_resident_bytes);
                }
                rows.push(Row {
                    name: item.name.clone(),
                    m,
                    nodes,
                    devices_per_node,
                    partition: partition.label().to_string(),
                    triangles: count.triangles,
                    total_ms: (session.prepare_s() + count.count_s) * 1e3,
                    count_ms: count.count_s * 1e3,
                    max_shard_arcs: session.per_shard_arcs().iter().copied().max().unwrap_or(0),
                    max_resident_bytes,
                    imbalance: session.imbalance(),
                });
                session
                    .release()
                    .unwrap_or_else(|e| panic!("{}: {e}", item.name));
            }
        }
        if m >= PEAK_ASSERT_MIN_ARCS {
            for pair in peaks_1d.windows(2) {
                assert!(
                    pair[1] < pair[0],
                    "{}: per-device peak must shrink as the grid grows ({:?})",
                    item.name,
                    peaks_1d
                );
            }
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Cluster sharding (GTX 980 grid, balanced schedule, modeled ms)",
        &[
            "graph",
            "m",
            "grid",
            "part",
            "total",
            "count",
            "max shard arcs",
            "peak MiB/device",
            "imbalance",
            "triangles",
        ],
    );
    for r in rows {
        t.push(vec![
            r.name.clone(),
            r.m.to_string(),
            r.topology(),
            r.partition.clone(),
            format!("{:.4}", r.total_ms),
            format!("{:.4}", r.count_ms),
            r.max_shard_arcs.to_string(),
            format!("{:.3}", r.max_resident_bytes as f64 / (1024.0 * 1024.0)),
            ratio(r.imbalance),
            r.triangles.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ladder_is_exact_everywhere() {
        let rows = run(&ExpConfig::smoke());
        // 13 suite graphs × (1x1 + {2x2, 4x2} × {1d, 2d}) = 13 × 5 cells;
        // `run` itself asserts every cell equals the single-device count.
        assert_eq!(rows.len(), 13 * 5);
        for r in &rows {
            assert!(r.total_ms > 0.0, "{}: empty cell", r.name);
            assert!(r.imbalance >= 1.0, "{}", r.name);
            assert!(r.max_shard_arcs <= r.m, "{}", r.name);
        }
        // The 4x2 grid must never need more arcs per shard than 2x2.
        for w in rows.chunks(5) {
            let by = |n: usize, m: usize, p: &str| {
                w.iter()
                    .find(|r| r.nodes == n && r.devices_per_node == m && r.partition == p)
                    .unwrap()
            };
            assert!(
                by(4, 2, "1d").max_shard_arcs <= by(2, 2, "1d").max_shard_arcs,
                "{}",
                w[0].name
            );
        }
    }
}
