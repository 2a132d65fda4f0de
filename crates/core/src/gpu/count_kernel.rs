//! The `CountTriangles` kernel (§III-C) as a SIMT lane program.
//!
//! Functionally and memory-access-faithfully mirrors the published CUDA:
//! thread `tid` handles the edges whose index ≡ `tid` modulo the grid size;
//! for each edge it loads the endpoints, the four node-array cells, and
//! runs the two-pointer merge over the neighbour array. The §III-D toggles:
//!
//! * [`LoopVariant::FinalReadAvoiding`] vs [`LoopVariant::Preliminary`]
//!   changes exactly the loads per merge iteration (1 vs 2);
//! * `EdgeLayout::SoA` vs `EdgeLayout::AoS` changes the stride of
//!   neighbour-array entries (4 B vs 8 B) and fuses the endpoint loads;
//! * `use_texture_cache` flips the `cached` flag on every data load
//!   (modelling the presence/absence of `const __restrict__`).
//!
//! Like the CUDA original, the final-variant merge issues a benign
//! one-past-the-end load on its last iteration (`a = edge[++u_it]` with
//! `u_it == u_end`); the simulator's arena guarantees those loads are safe.

use tc_simt::{
    AccessContract, AffineFootprint, DeviceBuffer, Effect, Interval, Kernel, LaunchConfig, MemView,
};

use super::LoopVariant;

/// Where the kernel's arrays live on the device.
#[derive(Clone, Copy, Debug, Hash)]
pub enum KernelArrays {
    /// Unzipped layout: `nbr[i]` = second endpoint (the concatenated,
    /// sorted adjacency lists), `owner[i]` = first endpoint.
    SoA {
        nbr: DeviceBuffer<u32>,
        owner: DeviceBuffer<u32>,
    },
    /// Packed `(owner << 32) | nbr` arcs.
    AoS { arcs: DeviceBuffer<u64> },
    /// Bin-ordered gathered endpoints (the balanced scheduler's layout):
    /// `eu[i]`/`ev[i]` are the edge's endpoints in work-sorted order,
    /// while merges still read the *original* adjacency array `adj` that
    /// the node array points into.
    Gathered {
        eu: DeviceBuffer<u32>,
        ev: DeviceBuffer<u32>,
        adj: DeviceBuffer<u32>,
    },
}

/// The triangle-counting kernel.
#[derive(Clone, Copy, Debug, Hash)]
pub struct CountKernel {
    pub arrays: KernelArrays,
    pub node: DeviceBuffer<u32>,
    pub result: DeviceBuffer<u64>,
    /// First edge index of this device's stripe (multi-GPU; 0 otherwise).
    pub offset: usize,
    /// Edges in this stripe (single GPU: the full `m`).
    pub count: usize,
    pub variant: LoopVariant,
    pub use_texture_cache: bool,
}

impl Kernel for CountKernel {
    type Lane = CountLane;

    fn contract(&self, _lc: LaunchConfig, total: usize) -> Option<AccessContract> {
        // Reads: the edge stripe this grid covers, the whole node array
        // (endpoint vertices are data-dependent), and the whole neighbour
        // array the merges walk. The final variant's benign one-past-the-end
        // load is covered by the verifier's guard-byte tolerance on reads.
        let mut reads = vec![Interval::bytes(self.node.addr(), self.node.byte_len())];
        match self.arrays {
            KernelArrays::SoA { nbr, owner } => {
                reads.push(Interval::bytes(
                    owner.addr() + self.offset as u64 * 4,
                    self.count as u64 * 4,
                ));
                reads.push(Interval::bytes(nbr.addr(), nbr.byte_len()));
            }
            // Packed arcs serve both as the edge stripe and as the
            // adjacency storage the node array points into.
            KernelArrays::AoS { arcs } => {
                reads.push(Interval::bytes(arcs.addr(), arcs.byte_len()));
            }
            KernelArrays::Gathered { eu, ev, adj } => {
                reads.push(Interval::bytes(
                    eu.addr() + self.offset as u64 * 4,
                    self.count as u64 * 4,
                ));
                reads.push(Interval::bytes(
                    ev.addr() + self.offset as u64 * 4,
                    self.count as u64 * 4,
                ));
                reads.push(Interval::bytes(adj.addr(), adj.byte_len()));
            }
        }
        // Each lane writes exactly its own 8-byte result cell, once.
        let writes = vec![AffineFootprint::per_lane(
            self.result.addr(),
            8,
            total as u64,
        )];
        Some(AccessContract {
            reads,
            writes,
            ..AccessContract::default()
        })
    }

    fn spawn(&self, tid: usize, total: usize) -> CountLane {
        CountLane {
            i: self.offset + tid,
            stride: u32::try_from(total).expect("grid fits u32 thread ids"),
            tid: tid as u32,
            u_it: 0,
            u_end: 0,
            v_it: 0,
            v_end: 0,
            a: 0,
            b: 0,
            u: 0,
            v: 0,
            count: 0,
            phase: Phase::NextEdge,
        }
    }

    fn step(&self, lane: &mut CountLane, mem: &MemView<'_>) -> Effect {
        // Register-only transitions are folded into the next memory step, so
        // every `step` returns exactly one chargeable effect.
        loop {
            match lane.phase {
                Phase::NextEdge => {
                    if lane.i >= self.offset + self.count {
                        lane.phase = Phase::WriteResult;
                        continue;
                    }
                    match self.arrays {
                        KernelArrays::SoA { owner, .. } => {
                            lane.u = mem.read_u32(owner.addr() + lane.i as u64 * 4);
                            lane.phase = Phase::LoadEdge2;
                            return self.read(owner.addr() + lane.i as u64 * 4, 4);
                        }
                        KernelArrays::AoS { arcs } => {
                            let packed = mem.read_u64(arcs.addr() + lane.i as u64 * 8);
                            lane.u = (packed >> 32) as u32;
                            lane.v = packed as u32;
                            lane.phase = Phase::LoadNodeU;
                            return self.read(arcs.addr() + lane.i as u64 * 8, 8);
                        }
                        KernelArrays::Gathered { eu, .. } => {
                            lane.u = mem.read_u32(eu.addr() + lane.i as u64 * 4);
                            lane.phase = Phase::LoadEdge2;
                            return self.read(eu.addr() + lane.i as u64 * 4, 4);
                        }
                    }
                }
                Phase::LoadEdge2 => {
                    let second = match self.arrays {
                        KernelArrays::SoA { nbr, .. } => nbr,
                        KernelArrays::Gathered { ev, .. } => ev,
                        KernelArrays::AoS { .. } => unreachable!(),
                    };
                    lane.v = mem.read_u32(second.addr() + lane.i as u64 * 4);
                    lane.phase = Phase::LoadNodeU;
                    return self.read(second.addr() + lane.i as u64 * 4, 4);
                }
                Phase::LoadNodeU => {
                    let addr = self.node.addr() + lane.u as u64 * 4;
                    lane.u_it = mem.read_u32(addr);
                    lane.phase = Phase::LoadNodeUEnd;
                    return self.read(addr, 4);
                }
                Phase::LoadNodeUEnd => {
                    let addr = self.node.addr() + (lane.u as u64 + 1) * 4;
                    lane.u_end = mem.read_u32(addr);
                    lane.phase = Phase::LoadNodeV;
                    return self.read(addr, 4);
                }
                Phase::LoadNodeV => {
                    let addr = self.node.addr() + lane.v as u64 * 4;
                    lane.v_it = mem.read_u32(addr);
                    lane.phase = Phase::LoadNodeVEnd;
                    return self.read(addr, 4);
                }
                Phase::LoadNodeVEnd => {
                    let addr = self.node.addr() + (lane.v as u64 + 1) * 4;
                    lane.v_end = mem.read_u32(addr);
                    lane.phase = match self.variant {
                        // `int a = edge[u_it], b = edge[v_it];` precedes the
                        // loop test in the CUDA source.
                        LoopVariant::FinalReadAvoiding => Phase::LoadA,
                        LoopVariant::Preliminary => {
                            if lane.u_it < lane.u_end && lane.v_it < lane.v_end {
                                Phase::LoadA
                            } else {
                                lane.i += lane.stride as usize;
                                Phase::NextEdge
                            }
                        }
                    };
                    return self.read(addr, 4);
                }
                Phase::LoadA => {
                    let (x, read) = self.load_elem(mem, lane.u_it);
                    lane.a = x;
                    lane.phase = match self.variant {
                        LoopVariant::FinalReadAvoiding => Phase::LoadB,
                        LoopVariant::Preliminary => Phase::PrelimLoadB,
                    };
                    return read;
                }
                Phase::LoadB => {
                    let (x, read) = self.load_elem(mem, lane.v_it);
                    lane.b = x;
                    lane.phase = Phase::Merge;
                    return read;
                }
                Phase::Merge => {
                    // Loop test first (matches the while condition).
                    if lane.u_it >= lane.u_end || lane.v_it >= lane.v_end {
                        lane.i += lane.stride as usize;
                        lane.phase = Phase::NextEdge;
                        continue;
                    }
                    debug_assert_eq!(self.variant, LoopVariant::FinalReadAvoiding);
                    match lane.a.cmp(&lane.b) {
                        std::cmp::Ordering::Less => {
                            lane.u_it += 1;
                            let (x, read) = self.load_elem(mem, lane.u_it);
                            lane.a = x;
                            return read;
                        }
                        std::cmp::Ordering::Greater => {
                            lane.v_it += 1;
                            let (x, read) = self.load_elem(mem, lane.v_it);
                            lane.b = x;
                            return read;
                        }
                        std::cmp::Ordering::Equal => {
                            lane.count += 1;
                            lane.u_it += 1;
                            lane.v_it += 1;
                            let (x, read) = self.load_elem(mem, lane.u_it);
                            lane.a = x;
                            lane.phase = Phase::MatchReloadB;
                            return read;
                        }
                    }
                }
                Phase::MatchReloadB => {
                    let (x, read) = self.load_elem(mem, lane.v_it);
                    lane.b = x;
                    lane.phase = Phase::Merge;
                    return read;
                }
                Phase::PrelimLoadB => {
                    // Preliminary variant: we just loaded `a`; load `b`, then
                    // compare and advance with *no* carried registers.
                    let (x, read) = self.load_elem(mem, lane.v_it);
                    lane.b = x;
                    match lane.a.cmp(&lane.b) {
                        std::cmp::Ordering::Less => lane.u_it += 1,
                        std::cmp::Ordering::Greater => lane.v_it += 1,
                        std::cmp::Ordering::Equal => {
                            lane.count += 1;
                            lane.u_it += 1;
                            lane.v_it += 1;
                        }
                    }
                    lane.phase = if lane.u_it < lane.u_end && lane.v_it < lane.v_end {
                        Phase::LoadA
                    } else {
                        lane.i += lane.stride as usize;
                        Phase::NextEdge
                    };
                    return read;
                }
                Phase::WriteResult => {
                    lane.phase = Phase::Finished;
                    return Effect::Write {
                        addr: self.result.addr() + lane.tid as u64 * 8,
                        bytes: 8,
                        value: lane.count,
                    };
                }
                Phase::Finished => return Effect::Done,
            }
        }
    }
}

impl CountKernel {
    /// Address and width of neighbour-array element `idx`.
    #[inline]
    fn elem(&self, idx: u32) -> (u64, u32) {
        match self.arrays {
            KernelArrays::SoA { nbr, .. } => (nbr.addr() + idx as u64 * 4, 4),
            KernelArrays::AoS { arcs } => (arcs.addr() + idx as u64 * 8, 8),
            KernelArrays::Gathered { adj, .. } => (adj.addr() + idx as u64 * 4, 4),
        }
    }

    /// Load neighbour-array element `idx` (low half in AoS), with the read
    /// effect that charges it.
    #[inline]
    fn load_elem(&self, mem: &MemView<'_>, idx: u32) -> (u32, Effect) {
        let (addr, bytes) = self.elem(idx);
        (mem.read_u32(addr), self.read(addr, bytes))
    }

    #[inline]
    fn read(&self, addr: u64, bytes: u32) -> Effect {
        Effect::Read {
            addr,
            bytes,
            cached: self.use_texture_cache,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    NextEdge,
    LoadEdge2, // SoA only: second endpoint load
    LoadNodeU,
    LoadNodeUEnd,
    LoadNodeV,
    LoadNodeVEnd,
    /// Initial `a` load (final variant performs it before the loop test,
    /// like the CUDA source).
    LoadA,
    LoadB,
    Merge,
    /// After a match in the final variant: reload `a`, then `b`.
    MatchReloadB,
    /// Preliminary variant: load `a` then `b` then compare, every iteration.
    PrelimLoadB,
    WriteResult,
    Finished,
}

/// One thread of [`CountKernel`]: its registers only. Everything uniform
/// across the grid lives in the kernel, which steps the lane.
pub struct CountLane {
    i: usize,
    stride: u32,
    tid: u32,
    u_it: u32,
    u_end: u32,
    v_it: u32,
    v_end: u32,
    a: u32,
    b: u32,
    u: u32,
    v: u32,
    count: u64,
    phase: Phase,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_simt::{Device, DeviceConfig, LaunchConfig};

    /// Tiny hand-built oriented graph: two triangles sharing edge (0, 1) in
    /// orientation space. Oriented arcs sorted by (owner, nbr):
    ///   0 -> 1, 0 -> 2, 0 -> 3, 1 -> 2, 1 -> 3
    /// Intersections: (0,1): {2,3} = 2; (0,2): {} ; (0,3): {}; (1,2); (1,3).
    fn device_with_graph() -> (Device, KernelArrays, DeviceBuffer<u32>, usize) {
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.preinit_context();
        dev.reset_clock();
        let owner: Vec<u32> = vec![0, 0, 0, 1, 1];
        let nbr: Vec<u32> = vec![1, 2, 3, 2, 3];
        let node: Vec<u32> = vec![0, 3, 5, 5, 5]; // n = 4
        let m = owner.len();
        let owner_buf = dev.htod_copy(&owner).unwrap();
        let nbr_buf = dev.htod_copy(&nbr).unwrap();
        let node_buf = dev.htod_copy(&node).unwrap();
        (
            dev,
            KernelArrays::SoA {
                nbr: nbr_buf,
                owner: owner_buf,
            },
            node_buf,
            m,
        )
    }

    fn run(
        dev: &mut Device,
        arrays: KernelArrays,
        node: DeviceBuffer<u32>,
        m: usize,
        variant: LoopVariant,
    ) -> u64 {
        let lc = LaunchConfig::new(2, 32);
        let total = lc.active_threads(dev.config().warp_size);
        let result = dev.alloc::<u64>(total).unwrap();
        dev.poke(&result, &vec![0u64; total]);
        let kernel = CountKernel {
            arrays,
            node,
            result,
            offset: 0,
            count: m,
            variant,
            use_texture_cache: true,
        };
        dev.launch("count", lc, &kernel).unwrap();
        dev.peek(&result).iter().sum()
    }

    #[test]
    fn counts_two_triangles_soa_final() {
        let (mut dev, arrays, node, m) = device_with_graph();
        assert_eq!(
            run(&mut dev, arrays, node, m, LoopVariant::FinalReadAvoiding),
            2
        );
    }

    #[test]
    fn counts_two_triangles_preliminary() {
        let (mut dev, arrays, node, m) = device_with_graph();
        assert_eq!(run(&mut dev, arrays, node, m, LoopVariant::Preliminary), 2);
    }

    #[test]
    fn counts_two_triangles_aos() {
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.preinit_context();
        dev.reset_clock();
        let arcs: Vec<u64> = [(0u64, 1u64), (0, 2), (0, 3), (1, 2), (1, 3)]
            .iter()
            .map(|&(u, v)| (u << 32) | v)
            .collect();
        let node: Vec<u32> = vec![0, 3, 5, 5, 5];
        let arcs_buf = dev.htod_copy(&arcs).unwrap();
        let node_buf = dev.htod_copy(&node).unwrap();
        let n = run(
            &mut dev,
            KernelArrays::AoS { arcs: arcs_buf },
            node_buf,
            arcs.len(),
            LoopVariant::FinalReadAvoiding,
        );
        assert_eq!(n, 2);
    }

    #[test]
    fn stripe_offsets_partition_the_work() {
        // Count edges [0, 3) and [3, 5) separately; totals must add up.
        let (mut dev, arrays, node, _) = device_with_graph();
        let lc = LaunchConfig::new(1, 32);
        let total = lc.active_threads(dev.config().warp_size);
        let mut sum = 0;
        for (off, cnt) in [(0usize, 3usize), (3, 2)] {
            let result = dev.alloc::<u64>(total).unwrap();
            dev.poke(&result, &vec![0u64; total]);
            let kernel = CountKernel {
                arrays,
                node,
                result,
                offset: off,
                count: cnt,
                variant: LoopVariant::FinalReadAvoiding,
                use_texture_cache: true,
            };
            dev.launch("count-stripe", lc, &kernel).unwrap();
            sum += dev.peek(&result).iter().sum::<u64>();
        }
        assert_eq!(sum, 2);
    }

    #[test]
    fn empty_edge_list_counts_zero() {
        let (mut dev, arrays, node, _) = device_with_graph();
        assert_eq!(
            run(&mut dev, arrays, node, 0, LoopVariant::FinalReadAvoiding),
            0
        );
    }

    #[test]
    fn preliminary_variant_issues_more_loads_on_mismatching_merges() {
        // A single edge (0, 1) whose endpoint lists are long, interleaved,
        // and match-free: the final variant loads one element per merge
        // iteration, the preliminary one two. (On all-match merges both
        // load two; the III-D3 gain comes from the mismatch-heavy
        // iterations that dominate real graphs.) Only edge index 0 is in
        // the stripe; the rest of the neighbour buffer is pure adjacency
        // storage, which the node array is free to point into.
        let k = 200u32;
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.preinit_context();
        dev.reset_clock();
        // nbr[0] = the edge's second endpoint; then vertex 0's list
        // (evens), then vertex 1's list (odds).
        let mut nbr: Vec<u32> = vec![1];
        nbr.extend((0..k).map(|i| 100 + 2 * i));
        nbr.extend((0..k).map(|i| 101 + 2 * i));
        let owner: Vec<u32> = vec![0];
        let mut node: Vec<u32> = vec![1, 1 + k, 1 + 2 * k];
        node.extend(std::iter::repeat_n(1 + 2 * k, 600));
        let owner_buf = dev.htod_copy(&owner).unwrap();
        let nbr_buf = dev.htod_copy(&nbr).unwrap();
        let node_buf = dev.htod_copy(&node).unwrap();

        let lc = LaunchConfig::new(1, 32);
        let total = lc.active_threads(dev.config().warp_size);
        let mut steps = Vec::new();
        for variant in [LoopVariant::FinalReadAvoiding, LoopVariant::Preliminary] {
            let result = dev.alloc::<u64>(total).unwrap();
            dev.poke(&result, &vec![0u64; total]);
            let kernel = CountKernel {
                arrays: KernelArrays::SoA {
                    nbr: nbr_buf,
                    owner: owner_buf,
                },
                node: node_buf,
                result,
                offset: 0,
                count: 1,
                variant,
                use_texture_cache: true,
            };
            let stats = dev.launch("count", lc, &kernel).unwrap();
            let counted: u64 = dev.peek(&result).iter().sum();
            assert_eq!(counted, 0, "interleaved lists share no element");
            steps.push(stats.lane_steps);
        }
        assert!(
            steps[1] as f64 > 1.4 * steps[0] as f64,
            "prelim {} not clearly above final {}",
            steps[1],
            steps[0]
        );
    }
}
