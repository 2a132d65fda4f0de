//! Cluster topology and the interconnect cost model.
//!
//! A cluster is N *nodes* of M devices each, joined by a network
//! interconnect that is slower than PCIe and pays a per-message latency.
//! Host data lives on node 0: a transfer to or from a device on any other
//! node first crosses the interconnect — [`INTERCONNECT_LATENCY_S`] plus
//! bytes over [`INTERCONNECT_BANDWIDTH_GBS`] — and then the target's PCIe
//! link. A one-node cluster never charges the interconnect: every device
//! hangs off the same PCIe root, as in the paper's multi-GPU scheme
//! (§III-E).
//!
//! Like everything in this crate the costs are analytic and deterministic:
//! the same bytes to the same node always charge the same modeled seconds.

use crate::device::Device;

/// Per-message interconnect latency in seconds (paid once per transfer).
/// With [`INTERCONNECT_BANDWIDTH_GBS`] it approximates a commodity
/// InfiniBand fabric — slower than every PCIe preset in
/// [`crate::DeviceConfig`], so crossing nodes is never free.
pub const INTERCONNECT_LATENCY_S: f64 = 2e-6;

/// Effective interconnect bandwidth in GB/s.
pub const INTERCONNECT_BANDWIDTH_GBS: f64 = 10.0;

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
}

/// Charge moving `bytes` between node 0 and `dev`, which lives on `node`,
/// to `dev`'s clock: one interconnect message, latency plus bytes over
/// bandwidth. A no-op on node 0 — it shares the host's node, so only PCIe
/// (charged by the copy itself) applies.
pub fn charge_internode(dev: &mut Device, node: usize, bytes: u64, label: &str) {
    if node == 0 {
        return;
    }
    let seconds = INTERCONNECT_LATENCY_S + bytes as f64 / (INTERCONNECT_BANDWIDTH_GBS * 1e9);
    dev.advance(label, seconds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    /// A device whose context is created and clock zeroed, so its clock
    /// counts only what a test charges.
    fn warm_device() -> Device {
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.preinit_context();
        dev.reset_clock();
        dev
    }

    #[test]
    fn topology_maps_flat_indices_to_nodes() {
        let t = ClusterTopology::new(2, 3);
        assert_eq!(t.num_devices(), 6);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(2), 0);
        assert_eq!(t.node_of(3), 1);
        assert_eq!(t.node_of(5), 1);
    }

    #[test]
    fn interconnect_cost_is_latency_plus_bandwidth() {
        let mut dev = warm_device();
        charge_internode(&mut dev, 1, 10_000_000_000, "internode");
        let want = INTERCONNECT_LATENCY_S + 1e10 / (INTERCONNECT_BANDWIDTH_GBS * 1e9);
        assert!((dev.elapsed() - want).abs() < 1e-12, "{}", dev.elapsed());
        // Zero bytes still pay the message latency.
        let mut dev = warm_device();
        charge_internode(&mut dev, 3, 0, "internode");
        assert_eq!(dev.elapsed(), INTERCONNECT_LATENCY_S);
    }

    #[test]
    fn node_zero_pays_no_interconnect() {
        let mut dev = warm_device();
        charge_internode(&mut dev, 0, 1 << 20, "internode");
        assert_eq!(dev.elapsed(), 0.0);
        assert!(dev.time_log().is_empty());
    }

    #[test]
    fn internode_charges_are_deterministic() {
        let run = || {
            let mut dev = warm_device();
            for node in 0..4 {
                charge_internode(&mut dev, node, 4096 * node as u64, "internode: shard send");
                charge_internode(&mut dev, node, 8, "internode: result send");
            }
            let log: Vec<(String, f64)> = dev
                .time_log()
                .iter()
                .map(|op| (op.label.clone(), op.seconds))
                .collect();
            (dev.elapsed(), log)
        };
        let (elapsed, log) = run();
        assert_eq!((elapsed, log.clone()), run());
        assert_eq!(log.len(), 6, "three remote nodes, two messages each");
    }
}
