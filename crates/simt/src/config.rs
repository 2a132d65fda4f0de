//! Device configurations and the presets mirroring the paper's hardware.
//!
//! The absolute constants are a *cost model*, not a die shot: they are chosen
//! so that (a) relative throughput between the presets tracks the real cards
//! (GTX 980 ≈ 2–3× a Tesla C2050 on this kernel, per Table I), and (b) the
//! memory-hierarchy parameters (line size, cache capacities, DRAM peak
//! bandwidth) match the published specs, because those drive the Table II
//! statistics directly.

/// Static description of a simulated device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, used in reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Lanes per warp (32 on every NVIDIA part).
    pub warp_size: u32,
    /// Core clock in GHz; one SM pipeline cycle = 1/clock ns.
    pub clock_ghz: f64,
    /// Instruction-issue slots per SM per cycle (Fermi ≈ 2, Maxwell ≈ 4).
    pub issue_width: u32,
    /// Memory-pipeline throughput: read transactions an SM can start per
    /// cycle. This is *effective* texture-path throughput including replays
    /// and bank conflicts (< 1 on these parts; Maxwell roughly doubled
    /// Fermi's).
    pub mem_txn_per_cycle: f64,
    /// Maximum resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Per-SM read-only (texture) cache capacity in bytes.
    pub tex_cache_bytes: u32,
    /// Texture-cache associativity (ways).
    pub tex_cache_ways: u32,
    /// Device-wide L2 capacity in bytes (address-sliced per SM in the sim).
    /// Presets scale this down with the graph suite, like `memory_capacity`:
    /// the paper's working sets exceed the real L2 by the same factor the
    /// bench suite exceeds these values.
    pub l2_cache_bytes: u32,
    pub l2_cache_ways: u32,
    /// Cache probe / transaction granularity in bytes (32 B sectors).
    pub line_bytes: u32,
    /// Bytes actually fetched from DRAM per missing sector (DRAM bursts are
    /// wider than a sector; 64 B here).
    pub dram_fetch_bytes: u32,
    /// Load-to-use latencies in cycles.
    pub tex_hit_latency: u32,
    pub l2_hit_latency: u32,
    pub dram_latency: u32,
    /// On-chip shared memory available to one block, in bytes (48 KB on
    /// every preset: the Fermi default split and the Maxwell per-block cap).
    pub shared_mem_per_block_bytes: u32,
    /// Conflict-free shared-memory load-to-use latency in cycles; an
    /// n-way bank conflict replays the access n times.
    pub shared_latency: u32,
    /// Number of 4-byte shared-memory banks (32 on every NVIDIA part).
    pub shared_banks: u32,
    /// Peak DRAM bandwidth in GB/s (GTX 980: 224, C2050: 144).
    pub dram_bandwidth_gbs: f64,
    /// Fraction of peak DRAM bandwidth streaming primitives achieve
    /// (Thrust-style passes reach 70–85 % in practice).
    pub stream_efficiency: f64,
    /// Host↔device copy bandwidth in GB/s (PCIe gen2 ≈ 6, gen3 ≈ 12).
    pub pcie_bandwidth_gbs: f64,
    /// Fixed overhead per kernel launch, in microseconds.
    pub launch_overhead_us: f64,
    /// Cost of first-touch CUDA context creation (the paper's
    /// `cudaFree(NULL)` note: ~100 ms folded into the first `cudaMalloc`
    /// unless the context is pre-initialized).
    pub context_init_ms: f64,
    /// Device memory capacity in bytes. Presets scale this down by the same
    /// factor as the graph suite (DESIGN.md §2) so the §III-D6 fallback
    /// triggers on the analog of the paper's over-capacity graphs.
    pub memory_capacity: u64,
}

impl DeviceConfig {
    /// Nvidia Tesla C2050 (Fermi): 14 SMs @ 1.15 GHz, 3 GB, 144 GB/s.
    /// Capacity is scaled down with the graph suite (DESIGN.md §2) so that,
    /// at bench scale, exactly the Orkut and top-Kronecker analogs overflow
    /// it — the rows Table I marks †.
    pub fn tesla_c2050() -> Self {
        DeviceConfig {
            name: "Tesla C2050",
            num_sms: 14,
            warp_size: 32,
            clock_ghz: 1.15,
            issue_width: 2,
            mem_txn_per_cycle: 0.18,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            tex_cache_bytes: 32 * 1024,
            tex_cache_ways: 4,
            l2_cache_bytes: 64 * 1024,
            l2_cache_ways: 8,
            line_bytes: 32,
            tex_hit_latency: 40,
            l2_hit_latency: 180,
            dram_latency: 450,
            shared_mem_per_block_bytes: 48 * 1024,
            shared_latency: 36,
            shared_banks: 32,
            dram_fetch_bytes: 64,
            dram_bandwidth_gbs: 144.0,
            stream_efficiency: 0.70,
            pcie_bandwidth_gbs: 6.0,
            launch_overhead_us: 8.0,
            context_init_ms: 100.0,
            memory_capacity: 20 * 1024 * 1024,
        }
    }

    /// Nvidia GeForce GTX 980 (Maxwell): 16 SMs @ 1.216 GHz, 4 GB, 224 GB/s.
    /// Scaled capacity holds the whole bench suite, like the real card held
    /// every Table I graph.
    pub fn gtx_980() -> Self {
        DeviceConfig {
            name: "GTX 980",
            num_sms: 16,
            warp_size: 32,
            clock_ghz: 1.216,
            issue_width: 4,
            mem_txn_per_cycle: 0.33,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            tex_cache_bytes: 96 * 1024,
            tex_cache_ways: 8,
            l2_cache_bytes: 128 * 1024,
            l2_cache_ways: 16,
            line_bytes: 32,
            tex_hit_latency: 30,
            l2_hit_latency: 160,
            dram_latency: 380,
            shared_mem_per_block_bytes: 48 * 1024,
            shared_latency: 24,
            shared_banks: 32,
            dram_fetch_bytes: 64,
            dram_bandwidth_gbs: 224.0,
            stream_efficiency: 0.80,
            pcie_bandwidth_gbs: 12.0,
            launch_overhead_us: 5.0,
            context_init_ms: 100.0,
            memory_capacity: 48 * 1024 * 1024,
        }
    }

    /// Nvidia NVS 5200M (the laptop Fermi part used for development):
    /// 2 SMs @ 0.625 GHz, 1 GB, 14.4 GB/s.
    pub fn nvs_5200m() -> Self {
        DeviceConfig {
            name: "NVS 5200M",
            num_sms: 2,
            warp_size: 32,
            clock_ghz: 0.625,
            issue_width: 2,
            mem_txn_per_cycle: 0.1,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            tex_cache_bytes: 16 * 1024,
            tex_cache_ways: 4,
            l2_cache_bytes: 32 * 1024,
            l2_cache_ways: 8,
            line_bytes: 32,
            tex_hit_latency: 40,
            l2_hit_latency: 200,
            dram_latency: 500,
            shared_mem_per_block_bytes: 48 * 1024,
            shared_latency: 36,
            shared_banks: 32,
            dram_fetch_bytes: 64,
            dram_bandwidth_gbs: 14.4,
            stream_efficiency: 0.65,
            pcie_bandwidth_gbs: 3.0,
            launch_overhead_us: 10.0,
            context_init_ms: 100.0,
            memory_capacity: 18 * 1024 * 1024,
        }
    }

    /// A variant with unlimited memory — used by tests that must not hit the
    /// capacity fallback.
    pub fn with_unlimited_memory(mut self) -> Self {
        self.memory_capacity = u64::MAX;
        self
    }

    /// A variant with an explicit capacity in bytes — used by the §III-D6
    /// failure-injection tests.
    pub fn with_memory_capacity(mut self, bytes: u64) -> Self {
        self.memory_capacity = bytes;
        self
    }

    /// Seconds taken by one SM pipeline cycle.
    #[inline]
    pub fn cycle_seconds(&self) -> f64 {
        1e-9 / self.clock_ghz
    }

    /// Resident blocks per SM for a given block size, limited by both the
    /// block and thread occupancy ceilings.
    pub fn resident_blocks(&self, threads_per_block: u32) -> u32 {
        (self.max_threads_per_sm / threads_per_block.max(1))
            .min(self.max_blocks_per_sm)
            .max(1)
    }

    /// Capacity of one SM's slice of the address-sliced L2, floored at one
    /// line per way.
    pub fn l2_slice_bytes(&self) -> u32 {
        (self.l2_cache_bytes / self.num_sms).max(self.line_bytes * self.l2_cache_ways)
    }

    /// The paper's tuned launch: 64 threads per block, 8 blocks per SM
    /// (§III-C).
    pub fn paper_launch(&self) -> crate::executor::LaunchConfig {
        crate::executor::LaunchConfig {
            threads_per_block: 64,
            blocks: 8 * self.num_sms,
            warp_split: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_sane() {
        for cfg in [
            DeviceConfig::tesla_c2050(),
            DeviceConfig::gtx_980(),
            DeviceConfig::nvs_5200m(),
        ] {
            assert!(cfg.num_sms >= 1);
            assert_eq!(cfg.warp_size, 32);
            assert!(cfg.clock_ghz > 0.1);
            assert!(cfg.line_bytes.is_power_of_two());
            assert!(cfg.tex_cache_bytes % (cfg.line_bytes * cfg.tex_cache_ways) == 0);
            assert!(cfg.dram_bandwidth_gbs > 1.0);
            assert!(cfg.memory_capacity > 1024);
            assert!(cfg.shared_banks.is_power_of_two());
            assert!(cfg.shared_mem_per_block_bytes >= 16 * 1024);
            assert!(cfg.shared_latency < cfg.l2_hit_latency);
        }
    }

    #[test]
    fn gtx980_outclasses_c2050() {
        let fermi = DeviceConfig::tesla_c2050();
        let maxwell = DeviceConfig::gtx_980();
        let fermi_tput = fermi.num_sms as f64 * fermi.clock_ghz * fermi.mem_txn_per_cycle;
        let maxwell_tput = maxwell.num_sms as f64 * maxwell.clock_ghz * maxwell.mem_txn_per_cycle;
        assert!(
            maxwell_tput / fermi_tput > 1.8,
            "{maxwell_tput} vs {fermi_tput}"
        );
    }

    #[test]
    fn paper_launch_matches_section_iii_c() {
        let cfg = DeviceConfig::gtx_980();
        let lc = cfg.paper_launch();
        assert_eq!(lc.threads_per_block, 64);
        assert_eq!(lc.blocks, 8 * cfg.num_sms);
    }

    #[test]
    fn resident_blocks_respects_both_limits() {
        let cfg = DeviceConfig::tesla_c2050();
        // 64-thread blocks: thread limit allows 24, block limit caps at 8.
        assert_eq!(cfg.resident_blocks(64), 8);
        // 1024-thread blocks: thread limit caps at 1.
        assert_eq!(cfg.resident_blocks(1024), 1);
    }

    #[test]
    fn capacity_overrides() {
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(1234);
        assert_eq!(cfg.memory_capacity, 1234);
        assert_eq!(cfg.with_unlimited_memory().memory_capacity, u64::MAX);
    }
}
