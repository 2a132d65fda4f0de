//! Simulated device sets: topology + interconnect cost model.
//!
//! A [`Cluster`] is N *nodes* of M devices each, joined by a network
//! interconnect that is slower than PCIe and pays a per-message latency.
//! Uploads to a device on node 0 (where the host data lives) cost only
//! the PCIe copy; uploads to any other node first cross the interconnect
//! — latency plus bytes over bandwidth — and then the target's PCIe link.
//! A one-node cluster never charges the interconnect: every device hangs
//! off the same PCIe root, as in the paper's multi-GPU scheme (§III-E).
//!
//! Like everything in this crate the costs are analytic and deterministic:
//! the same bytes over the same [`Interconnect`] always charge the same
//! modeled seconds.

use crate::arena::{DeviceBuffer, DeviceScalar};
use crate::config::DeviceConfig;
use crate::device::Device;
use crate::error::SimtError;

/// The inter-node network: a latency + bandwidth cost model layered on top
/// of the per-node PCIe model.
///
/// Defaults approximate a commodity InfiniBand fabric (2 µs message
/// latency, 10 GB/s effective bandwidth) — slower than every PCIe preset
/// in [`DeviceConfig`], so crossing nodes is never free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interconnect {
    /// Per-message latency in seconds (paid once per transfer).
    pub latency_s: f64,
    /// Effective bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

impl Default for Interconnect {
    fn default() -> Self {
        Interconnect {
            latency_s: 2e-6,
            bandwidth_gbs: 10.0,
        }
    }
}

impl Interconnect {
    /// Modeled seconds to move `bytes` across the interconnect.
    #[inline]
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// The shape of a cluster: `nodes` hosts with `devices_per_node` devices
/// each. Device `i` (flat index) lives on node `i / devices_per_node`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    pub nodes: usize,
    pub devices_per_node: usize,
}

impl ClusterTopology {
    /// A topology of `nodes` × `devices_per_node`. Both must be ≥ 1.
    pub fn new(nodes: usize, devices_per_node: usize) -> Self {
        assert!(nodes >= 1, "a cluster needs at least one node");
        assert!(devices_per_node >= 1, "a node needs at least one device");
        ClusterTopology {
            nodes,
            devices_per_node,
        }
    }

    /// Total devices in the cluster.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.nodes * self.devices_per_node
    }

    /// The node a flat device index lives on.
    #[inline]
    pub fn node_of(&self, device: usize) -> usize {
        device / self.devices_per_node
    }

    /// The canonical `<n>x<m>` label (`2x2`, `4x1`, …).
    pub fn label(&self) -> String {
        format!("{}x{}", self.nodes, self.devices_per_node)
    }
}

/// A set of simulated devices spread across cluster nodes, with the
/// interconnect charged on every cross-node movement.
///
/// Host data (graph shards) is assumed resident on node 0; an upload to a
/// device on another node first pays the interconnect transfer, then the
/// target's PCIe copy. Per-device clocks advance independently — the
/// cluster's wall clock is [`Cluster::elapsed_max`].
#[derive(Debug)]
pub struct Cluster {
    topology: ClusterTopology,
    interconnect: Interconnect,
    devices: Vec<Device>,
}

impl Cluster {
    /// `topology.num_devices()` identical devices.
    pub fn homogeneous(
        topology: ClusterTopology,
        interconnect: Interconnect,
        cfg: &DeviceConfig,
    ) -> Self {
        Cluster {
            topology,
            interconnect,
            devices: (0..topology.num_devices())
                .map(|_| Device::new(cfg.clone()))
                .collect(),
        }
    }

    #[inline]
    pub fn topology(&self) -> ClusterTopology {
        self.topology
    }

    #[inline]
    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    #[inline]
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    #[inline]
    pub fn device_mut(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// Upload host data to one device, charging the interconnect first
    /// when the device lives off node 0 (the shard must travel from the
    /// host holding the graph to the owning node before its PCIe copy).
    pub fn htod_scatter<T: DeviceScalar>(
        &mut self,
        device: usize,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, SimtError> {
        self.charge_internode(
            device,
            (data.len() * T::BYTES) as u64,
            "internode: shard send",
        );
        self.devices[device].htod_copy(data)
    }

    /// Charge the interconnect cost of moving `bytes` to/from `device`'s
    /// node, on that device's clock. A no-op for devices on node 0 — they
    /// share the host's node, so only PCIe (charged elsewhere) applies.
    pub fn charge_internode(&mut self, device: usize, bytes: u64, label: &str) {
        if self.topology.node_of(device) == 0 {
            return;
        }
        let cost = self.interconnect.transfer_seconds(bytes);
        self.devices[device].advance(label, cost);
    }

    /// The cluster's wall clock: the slowest device.
    pub fn elapsed_max(&self) -> f64 {
        self.devices.iter().map(Device::elapsed).fold(0.0, f64::max)
    }

    /// The largest per-device peak memory footprint, in bytes — the
    /// capacity a real deployment of this topology would have to provision
    /// per card.
    pub fn mem_peak_max(&self) -> u64 {
        self.devices.iter().map(Device::mem_peak).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cluster whose contexts are created and clocks zeroed, so each
    /// device's clock counts only what a test charges.
    fn warm_cluster(topology: ClusterTopology, cfg: &DeviceConfig) -> Cluster {
        let mut c = Cluster::homogeneous(topology, Interconnect::default(), cfg);
        for i in 0..c.len() {
            c.device_mut(i).preinit_context();
            c.device_mut(i).reset_clock();
        }
        c
    }

    #[test]
    fn topology_maps_flat_indices_to_nodes() {
        let t = ClusterTopology::new(2, 3);
        assert_eq!(t.num_devices(), 6);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(2), 0);
        assert_eq!(t.node_of(3), 1);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.label(), "2x3");
    }

    #[test]
    fn interconnect_cost_is_latency_plus_bandwidth() {
        let ic = Interconnect {
            latency_s: 1e-6,
            bandwidth_gbs: 10.0,
        };
        let t = ic.transfer_seconds(10_000_000_000);
        assert!((t - (1e-6 + 1.0)).abs() < 1e-12);
        // Zero bytes still pay the message latency.
        assert_eq!(ic.transfer_seconds(0), 1e-6);
    }

    #[test]
    fn scatter_to_remote_nodes_charges_the_interconnect() {
        let cfg = DeviceConfig::tesla_c2050().with_unlimited_memory();
        let mut cluster = warm_cluster(ClusterTopology::new(2, 1), &cfg);
        let data: Vec<u32> = (0..4096).collect();
        let b0 = cluster.htod_scatter(0, &data).unwrap();
        let b1 = cluster.htod_scatter(1, &data).unwrap();
        assert_eq!(cluster.device(0).peek(&b0), data);
        assert_eq!(cluster.device(1).peek(&b1), data);
        // Device 1 sits on node 1: same PCIe copy, plus the interconnect.
        let local = cluster.device(0).elapsed();
        let remote = cluster.device(1).elapsed();
        let expected_extra = cluster.interconnect().transfer_seconds((4096 * 4) as u64);
        assert!(
            (remote - local - expected_extra).abs() < 1e-12,
            "remote {remote} vs local {local} (+{expected_extra})"
        );
        assert!(cluster.elapsed_max() >= remote);
    }

    #[test]
    fn internode_charges_are_deterministic() {
        let cfg = DeviceConfig::gtx_980().with_unlimited_memory();
        let run = || {
            let mut c = warm_cluster(ClusterTopology::new(2, 2), &cfg);
            let data: Vec<u64> = (0..1000).collect();
            for i in 0..4 {
                c.htod_scatter(i, &data).unwrap();
                c.charge_internode(i, 8, "internode: result send");
            }
            (0..4).map(|i| c.device(i).elapsed()).collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mem_peak_max_tracks_the_largest_device() {
        let cfg = DeviceConfig::gtx_980().with_unlimited_memory();
        let mut c = warm_cluster(ClusterTopology::new(1, 2), &cfg);
        let big: Vec<u32> = vec![0; 10_000];
        let small: Vec<u32> = vec![0; 10];
        c.htod_scatter(0, &big).unwrap();
        c.htod_scatter(1, &small).unwrap();
        assert!(c.mem_peak_max() >= 40_000);
    }
}
