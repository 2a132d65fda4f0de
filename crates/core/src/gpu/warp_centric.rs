//! The virtual warp-centric kernel: a *virtual warp* of `W` lanes
//! cooperates on each edge's intersection, in one of two strategies.
//!
//! [`IntersectStrategy::BinarySearch`] is §III-D7's *unsuccessful*
//! optimization attempt ("we tried the virtual warp-centric method \[10\]…
//! none of these optimizations increased the performance of our
//! implementation, probably due to a high overhead compared to possible
//! gains"): the lanes stride over the shorter endpoint list and each
//! tests its elements against the longer list by binary search. That
//! parallelizes the intersection (the idea Green et al. \[15\] build on)
//! but replaces the merge's ~1 sequential read per element with
//! ~log₂(len) *scattered* reads — exactly the overhead the paper
//! observed. The ablation bench keeps this variant to demonstrate the
//! negative result.
//!
//! [`IntersectStrategy::ChunkScan`] is the balanced scheduler's variant
//! (the workload-balancing line of Hu et al. and TRUST): the `W` lanes
//! coalesce-load a `W`-element chunk of the *longer* list into registers
//! (the chunk's last element reaching every lane by register shuffle),
//! then scan the *shorter* list with lockstep vectorized reads — every
//! lane loads the same `int4`-style quad, so a scan step costs one or two
//! transactions for `4 × W` comparisons. Per edge the memory pipeline
//! sees roughly `short/3 + long/8` transactions instead of the merge's
//! `short + long`, which is what makes the virtual-warp idea profitable
//! after all on the transaction-throughput-bound counting kernel.
//!
//! [`IntersectStrategy::Hash`] is the TRUST-style vertex-centric variant
//! (Pandey et al. 2021): the virtual warp builds a power-of-two hash
//! table over the *shorter* list in a per-warp shared-memory scratch
//! window (linear collision chains, load factor ≤ ½), then streams the
//! *longer* list through it with coalesced loads — both lists are
//! consumed at `W` elements per step instead of the chunk scan's
//! lockstep-broadcast 4 per step on the short side. Build inserts,
//! chain-walk reads, and bank conflicts are charged through the shared
//! effects of the cycle model; tables that overflow the per-warp shared
//! budget spill to global scratch (priced through L2/DRAM), and tables
//! that cannot fit the scratch stride at all fall back to the chunk scan
//! for that edge. Consecutive edges sharing a build list reuse the table
//! (the vertex-centric amortization TRUST is named for). Counts are
//! exact under all strategies.

use std::cell::RefCell;
use std::rc::Rc;

use tc_simt::{
    AccessContract, AffineFootprint, DeviceBuffer, Effect, Interval, Kernel, LaunchConfig, MemView,
};

/// Per-virtual-warp hash-table scratch stride in `u32` slots (16 KB): the
/// static shared-memory window a CUDA build would declare per warp. Tables
/// needing more slots than this fall back to the chunk scan in-kernel.
pub const HASH_TABLE_SLOTS: u32 = 4096;

/// Empty hash slot marker (valid vertex ids are `< u32::MAX`).
const HASH_SENTINEL: u32 = u32::MAX;

/// Hash-bin edges are dealt to virtual warps in runs of this many
/// consecutive edges: long enough that the bin's `(u, v)`-ordered edges
/// sharing a build list land on one warp and amortize the table build,
/// short enough that heavy edges still interleave across warps.
const HASH_RUN: usize = 8;

/// Fibonacci multiplicative hash into `32 − shift` bits.
#[inline]
fn hash_slot(x: u32, shift: u32) -> u32 {
    x.wrapping_mul(0x9E37_79B1) >> shift
}

/// Scratch length in `u32` slots the hash strategy needs for a launch with
/// `total_threads` active threads at virtual-warp width `virtual_warp`:
/// one [`HASH_TABLE_SLOTS`]-slot window per virtual warp.
pub fn hash_scratch_len(total_threads: usize, virtual_warp: u32) -> usize {
    (total_threads / virtual_warp.max(1) as usize) * HASH_TABLE_SLOTS as usize
}

/// How many of a virtual warp's scratch slots fit on-chip for a launch:
/// the per-block shared-memory budget divided evenly among the block's
/// virtual warps, capped at the scratch stride. Tables larger than this
/// spill to global scratch (modeled through L2/DRAM).
pub fn hash_shared_slots(
    cfg: &tc_simt::DeviceConfig,
    threads_per_block: u32,
    virtual_warp: u32,
) -> u32 {
    let vwarps = (threads_per_block / virtual_warp.max(1)).max(1);
    (cfg.shared_mem_per_block_bytes / vwarps / 4).min(HASH_TABLE_SLOTS)
}

/// How the `W` lanes of a virtual warp intersect the two adjacency lists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum IntersectStrategy {
    /// §III-D7's attempt: stride the shorter list, binary search the
    /// longer one. Scattered probe reads; the paper's negative result.
    #[default]
    BinarySearch,
    /// The balanced scheduler's strategy: coalesced chunk loads of the
    /// longer list + lockstep broadcast scan of the shorter one.
    ChunkScan,
    /// TRUST-style: build a shared-memory hash table over the shorter
    /// list, stream the longer list through it. Requires
    /// [`WarpCentricKernel::scratch`].
    Hash,
}

/// Virtual-warp-centric triangle counting.
///
/// Endpoint loads come from `edge_u`/`edge_v` (the preprocessed
/// `owner`/`nbr` pair, or the balanced scheduler's bin-ordered gathered
/// copies); merges and binary searches read the adjacency array `adj`
/// that the `node` array points into.
#[derive(Clone, Copy, Debug, Hash)]
pub struct WarpCentricKernel {
    /// Adjacency storage (`node[v] .. node[v+1]` spans vertex `v`'s list).
    pub adj: DeviceBuffer<u32>,
    /// First endpoint per edge.
    pub edge_u: DeviceBuffer<u32>,
    /// Second endpoint per edge.
    pub edge_v: DeviceBuffer<u32>,
    pub node: DeviceBuffer<u32>,
    pub result: DeviceBuffer<u64>,
    /// First edge index of this launch's stripe/bin (0 otherwise).
    pub offset: usize,
    /// Edges in the launch (single GPU: the oriented `m`).
    pub count: usize,
    /// Virtual warp width `W` (lanes cooperating per edge); must divide the
    /// physical warp size.
    pub virtual_warp: u32,
    pub use_texture_cache: bool,
    /// How the virtual warp intersects the two lists.
    pub strategy: IntersectStrategy,
    /// Hash strategy only: global scratch backing every virtual warp's
    /// [`HASH_TABLE_SLOTS`]-slot table window (warp `i` owns slots
    /// `i * HASH_TABLE_SLOTS ..`). The sanitizer checks table accesses
    /// against this buffer's bounds.
    pub scratch: Option<DeviceBuffer<u32>>,
    /// Hash strategy only: how many of a warp's scratch slots fit the
    /// per-block shared-memory budget. Larger tables (up to the stride)
    /// spill to global scratch through L2/DRAM.
    pub shared_slots: u32,
}

impl Kernel for WarpCentricKernel {
    type Lane = WarpCentricLane;

    fn contract(&self, lc: LaunchConfig, total: usize) -> Option<AccessContract> {
        let w = self.virtual_warp.max(1);
        let reads = vec![
            Interval::bytes(self.node.addr(), self.node.byte_len()),
            Interval::bytes(self.adj.addr(), self.adj.byte_len()),
            Interval::bytes(
                self.edge_u.addr() + self.offset as u64 * 4,
                self.count as u64 * 4,
            ),
            Interval::bytes(
                self.edge_v.addr() + self.offset as u64 * 4,
                self.count as u64 * 4,
            ),
        ];
        // Each lane writes exactly its own 8-byte result cell, once.
        let writes = vec![AffineFootprint::per_lane(
            self.result.addr(),
            8,
            total as u64,
        )];
        // Hash strategy: the virtual warps share HASH_TABLE_SLOTS-slot
        // scratch windows — disjoint across warps, cooperatively written
        // within one. Its on-chip portion claims the per-block shared
        // budget (the spilled remainder travels L2/DRAM instead).
        let mut scratch = Vec::new();
        let mut shared_bytes_per_block = 0;
        if let Some(s) = self.scratch {
            let window = HASH_TABLE_SLOTS as u64 * 4;
            scratch.push(AffineFootprint {
                base: s.addr(),
                stride: window,
                span: window,
                groups: (total as u64) / w as u64,
                lanes_per_group: w,
                disjoint: true,
            });
            let vwarps_per_block = (lc.threads_per_block / w).max(1) as u64;
            shared_bytes_per_block =
                vwarps_per_block * self.shared_slots.min(HASH_TABLE_SLOTS) as u64 * 4;
        }
        Some(AccessContract {
            reads,
            writes,
            scratch,
            shared_bytes_per_block,
        })
    }

    fn spawn(&self, tid: usize, total: usize) -> WarpCentricLane {
        let table = (self.strategy == IntersectStrategy::Hash).then(Rc::default);
        self.lane(tid, total, table)
    }

    /// The lanes of one virtual warp share one functional hash table, as
    /// they share the table's shared-memory window on the device.
    fn spawn_warp(&self, first_tid: usize, lanes: usize, total: usize) -> Vec<WarpCentricLane> {
        let hash = self.strategy == IntersectStrategy::Hash;
        let w = self.virtual_warp as usize;
        let mut vwarp: Option<(usize, Rc<RefCell<HashTable>>)> = None;
        (first_tid..first_tid + lanes)
            .map(|tid| {
                let table = hash.then(|| match &vwarp {
                    Some((vw, t)) if *vw == tid / w => Rc::clone(t),
                    _ => Rc::clone(&vwarp.insert((tid / w, Rc::default())).1),
                });
                self.lane(tid, total, table)
            })
            .collect()
    }

    fn step(&self, lane: &mut WarpCentricLane, mem: &MemView<'_>) -> Effect {
        loop {
            match lane.phase {
                Phase::NextEdge => {
                    if lane.edge >= self.offset + self.count {
                        lane.phase = Phase::WriteResult;
                        continue;
                    }
                    let addr = self.edge_u.addr_of(lane.edge);
                    lane.u = mem.read_u32(addr);
                    lane.phase = Phase::LoadEdge2;
                    return self.read(addr);
                }
                Phase::LoadEdge2 => {
                    let addr = self.edge_v.addr_of(lane.edge);
                    lane.v = mem.read_u32(addr);
                    lane.phase = Phase::LoadNodeU;
                    return self.read(addr);
                }
                Phase::LoadNodeU => {
                    let addr = self.node.addr_of(lane.u as usize);
                    lane.short_it = mem.read_u32(addr);
                    lane.phase = Phase::LoadNodeUEnd;
                    return self.read(addr);
                }
                Phase::LoadNodeUEnd => {
                    let addr = self.node.addr_of(lane.u as usize + 1);
                    lane.short_end = mem.read_u32(addr);
                    lane.phase = Phase::LoadNodeV;
                    return self.read(addr);
                }
                Phase::LoadNodeV => {
                    let addr = self.node.addr_of(lane.v as usize);
                    lane.long_lo = mem.read_u32(addr);
                    lane.phase = Phase::LoadNodeVEnd;
                    return self.read(addr);
                }
                Phase::LoadNodeVEnd => {
                    let addr = self.node.addr_of(lane.v as usize + 1);
                    lane.long_hi = mem.read_u32(addr);
                    // Walk the shorter list, search/chunk the longer one.
                    if lane.long_hi - lane.long_lo < lane.short_end - lane.short_it {
                        std::mem::swap(&mut lane.short_it, &mut lane.long_lo);
                        std::mem::swap(&mut lane.short_end, &mut lane.long_hi);
                    }
                    match self.strategy {
                        IntersectStrategy::BinarySearch => {
                            // This lane's stripe of the shorter list.
                            lane.short_it += lane.role;
                            lane.phase = Phase::LoadNeedle;
                        }
                        IntersectStrategy::ChunkScan => {
                            // Every lane scans the full shorter list in
                            // lockstep; the chunk walk starts at the
                            // longer list's head.
                            lane.chunk_base = lane.long_lo;
                            lane.phase = Phase::ChunkLoad;
                        }
                        IntersectStrategy::Hash => self.hash_setup(lane, mem),
                    }
                    return self.read(addr);
                }
                Phase::LoadNeedle => {
                    if lane.short_it >= lane.short_end {
                        self.advance_edge(lane);
                        lane.phase = Phase::NextEdge;
                        continue;
                    }
                    let addr = self.adj.addr_of(lane.short_it as usize);
                    lane.needle = mem.read_u32(addr);
                    lane.bs_lo = lane.long_lo;
                    lane.bs_hi = lane.long_hi;
                    lane.phase = Phase::Probe;
                    return self.read(addr);
                }
                Phase::Probe => {
                    if lane.bs_lo >= lane.bs_hi {
                        // Not found; next stripe element.
                        lane.short_it += self.virtual_warp;
                        lane.phase = Phase::LoadNeedle;
                        continue;
                    }
                    let mid = lane.bs_lo + (lane.bs_hi - lane.bs_lo) / 2;
                    let addr = self.adj.addr_of(mid as usize);
                    let val = mem.read_u32(addr);
                    match lane.needle.cmp(&val) {
                        std::cmp::Ordering::Equal => {
                            lane.count += 1;
                            lane.short_it += self.virtual_warp;
                            lane.phase = Phase::LoadNeedle;
                        }
                        std::cmp::Ordering::Less => lane.bs_hi = mid,
                        std::cmp::Ordering::Greater => lane.bs_lo = mid + 1,
                    }
                    return self.read(addr);
                }
                Phase::ChunkLoad => {
                    if lane.chunk_base >= lane.long_hi || lane.short_it >= lane.short_end {
                        // Either list exhausted: no more matches possible.
                        self.advance_edge(lane);
                        lane.phase = Phase::NextEdge;
                        continue;
                    }
                    // The W lanes read W consecutive elements — one or two
                    // coalesced line transactions. Slots past the end clamp
                    // to the last element but must never count a match.
                    let slot = lane.chunk_base + lane.role;
                    lane.chunk_dead = slot >= lane.long_hi;
                    let idx = slot.min(lane.long_hi - 1);
                    let addr = self.adj.addr_of(idx as usize);
                    lane.chunk_val = mem.read_u32(addr);
                    // The chunk's last element is the scan's advance bound.
                    // The lane holding it just loaded it, so every other
                    // lane gets it by register shuffle (`__shfl_sync`) —
                    // no extra memory traffic.
                    let last = (lane.chunk_base + self.virtual_warp).min(lane.long_hi) - 1;
                    lane.chunk_last = mem.read_u32(self.adj.addr_of(last as usize));
                    lane.phase = Phase::Scan;
                    return self.read(addr);
                }
                Phase::Scan => {
                    if lane.short_it >= lane.short_end {
                        self.advance_edge(lane);
                        lane.phase = Phase::NextEdge;
                        continue;
                    }
                    // Lockstep vectorized read: the whole virtual warp loads
                    // the same up-to-four consecutive shorter-list elements
                    // (an `int4`-style load — one effect, one or two line
                    // transactions for `4 × W` comparisons). Adjacency lists
                    // are strictly sorted, so each loaded value is consumed
                    // by exactly one chunk: values `< chunk_last` stay in
                    // this chunk, a value `== chunk_last` is consumed here
                    // and ends the chunk, values above wait for the next.
                    let valid = 4.min(lane.short_end - lane.short_it);
                    let addr = self.adj.addr_of(lane.short_it as usize);
                    let mut consumed = 0u32;
                    let mut hit_last = false;
                    for j in 0..valid {
                        let s_val = mem.read_u32(self.adj.addr_of((lane.short_it + j) as usize));
                        if s_val > lane.chunk_last {
                            break;
                        }
                        consumed += 1;
                        if !lane.chunk_dead && s_val == lane.chunk_val {
                            lane.count += 1;
                        }
                        if s_val == lane.chunk_last {
                            hit_last = true;
                            break;
                        }
                    }
                    lane.short_it += consumed;
                    if consumed < valid || hit_last {
                        // Later shorter-list elements exceed this chunk.
                        lane.chunk_base += self.virtual_warp;
                        lane.phase = Phase::ChunkLoad;
                    }
                    return Effect::Read {
                        addr,
                        bytes: 4 * valid,
                        cached: self.use_texture_cache,
                    };
                }
                Phase::HashBuildLoad => {
                    if lane.hb_round >= lane.hb_rounds {
                        lane.phase = Phase::HashProbeLoad;
                        continue;
                    }
                    // Coalesced: in round `r` lane `role` loads build
                    // element `short_it + r·W + role` — consecutive
                    // addresses across the virtual warp. Lanes past the
                    // list end stay predicated off for the whole round so
                    // the warp's step count (and hence its coalescing)
                    // never drifts.
                    let i = lane.short_it + lane.hb_round * self.virtual_warp + lane.role;
                    lane.phase = Phase::HashBuildWalk;
                    if i >= lane.short_end {
                        lane.hb_active = false;
                        return Effect::Compute { cycles: 1 };
                    }
                    lane.hb_active = true;
                    let addr = self.adj.addr_of(i as usize);
                    lane.hb_x = mem.read_u32(addr);
                    lane.walk_slot = hash_slot(lane.hb_x, lane.table_shift);
                    lane.walk_len = lane.build_walk(i - lane.short_it);
                    return self.read(addr);
                }
                Phase::HashBuildWalk => {
                    lane.phase = Phase::HashBuildInsert;
                    if !lane.hb_active {
                        return Effect::Compute { cycles: 1 };
                    }
                    return lane.walk_effect();
                }
                Phase::HashBuildInsert => {
                    lane.hb_round += 1;
                    lane.phase = Phase::HashBuildLoad;
                    if !lane.hb_active {
                        return Effect::Compute { cycles: 1 };
                    }
                    // The element's final slot: chain start advanced by
                    // the walk length, circularly.
                    let slot = (lane.walk_slot + lane.walk_len).wrapping_sub(1) & lane.table_mask;
                    return Effect::SharedWrite {
                        addr: lane.scratch_base + slot as u64 * 4,
                        bytes: 4,
                        value: lane.hb_x as u64,
                        spilled: lane.table_spilled,
                    };
                }
                Phase::HashProbeLoad => {
                    if lane.pr_round >= lane.pr_rounds {
                        self.advance_edge(lane);
                        lane.phase = Phase::NextEdge;
                        continue;
                    }
                    let i = lane.long_lo + lane.pr_round * self.virtual_warp + lane.role;
                    lane.phase = Phase::HashProbeWalk;
                    if i >= lane.long_hi {
                        lane.pr_active = false;
                        return Effect::Compute { cycles: 1 };
                    }
                    lane.pr_active = true;
                    let addr = self.adj.addr_of(i as usize);
                    let y = mem.read_u32(addr);
                    let (len, found) = lane.hash_probe(y);
                    lane.walk_slot = hash_slot(y, lane.table_shift);
                    lane.walk_len = len;
                    lane.probe_found = found;
                    return self.read(addr);
                }
                Phase::HashProbeWalk => {
                    lane.pr_round += 1;
                    lane.phase = Phase::HashProbeLoad;
                    if !lane.pr_active {
                        return Effect::Compute { cycles: 1 };
                    }
                    if lane.probe_found {
                        lane.count += 1;
                    }
                    return lane.walk_effect();
                }
                Phase::WriteResult => {
                    lane.phase = Phase::Finished;
                    return Effect::Write {
                        addr: self.result.addr_of(lane.tid),
                        bytes: 8,
                        value: lane.count,
                    };
                }
                Phase::Finished => return Effect::Done,
            }
        }
    }
}

impl WarpCentricKernel {
    /// Lane `tid` of `total`; `table` is its virtual warp's hash table
    /// (hash strategy only).
    fn lane(
        &self,
        tid: usize,
        total: usize,
        table: Option<Rc<RefCell<HashTable>>>,
    ) -> WarpCentricLane {
        let w = self.virtual_warp as usize;
        let vw = tid / w;
        let hash = self.strategy == IntersectStrategy::Hash;
        WarpCentricLane {
            // Hash bins deal edges in HASH_RUN-long runs round-robin over
            // the virtual warps (build-list amortization); the other
            // strategies grid-stride one edge at a time.
            edge: if hash {
                self.offset + vw * HASH_RUN
            } else {
                self.offset + vw
            },
            edge_stride: total / w,
            role: (tid % w) as u32,
            tid,
            count: 0,
            phase: Phase::NextEdge,
            u: 0,
            v: 0,
            short_it: 0,
            short_end: 0,
            long_lo: 0,
            long_hi: 0,
            needle: 0,
            bs_lo: 0,
            bs_hi: 0,
            chunk_base: 0,
            chunk_val: 0,
            chunk_last: 0,
            chunk_dead: false,
            run_block: vw,
            run_off: 0,
            table,
            built_span: NO_SPAN,
            table_mask: 0,
            table_shift: 0,
            table_spilled: false,
            scratch_base: self
                .scratch
                .map(|s| s.addr_of(vw * HASH_TABLE_SLOTS as usize))
                .unwrap_or(0),
            hb_round: 0,
            hb_rounds: 0,
            hb_active: false,
            hb_x: 0,
            walk_slot: 0,
            walk_len: 0,
            pr_round: 0,
            pr_rounds: 0,
            pr_active: false,
            probe_found: false,
        }
    }

    #[inline]
    fn read(&self, addr: u64) -> Effect {
        Effect::Read {
            addr,
            bytes: 4,
            cached: self.use_texture_cache,
        }
    }

    /// Advance to this lane's next edge: grid stride normally, run-blocked
    /// dealing under the hash strategy.
    #[inline]
    fn advance_edge(&self, lane: &mut WarpCentricLane) {
        if self.strategy == IntersectStrategy::Hash {
            lane.run_off += 1;
            if lane.run_off == HASH_RUN {
                lane.run_off = 0;
                lane.run_block += lane.edge_stride;
            }
            lane.edge = self.offset + lane.run_block * HASH_RUN + lane.run_off;
        } else {
            lane.edge += lane.edge_stride;
        }
    }

    /// Decide how the hash strategy handles the current edge and set the
    /// next phase: build (or reuse) a table over `short_it..short_end`,
    /// or fall back to the chunk scan when the table cannot fit the
    /// scratch stride. Functional table construction happens here with
    /// free reads; the build phases replay this lane's stripe of it as
    /// charged effects.
    fn hash_setup(&self, lane: &mut WarpCentricLane, mem: &MemView<'_>) {
        let s = lane.short_end - lane.short_it;
        if s == 0 {
            self.advance_edge(lane);
            lane.phase = Phase::NextEdge;
            return;
        }
        let slots = (2 * s).next_power_of_two().max(8);
        if slots > HASH_TABLE_SLOTS {
            // Too big for the scratch window: chunk-scan this edge.
            lane.chunk_base = lane.long_lo;
            lane.phase = Phase::ChunkLoad;
            return;
        }
        let w = self.virtual_warp;
        lane.pr_round = 0;
        lane.pr_rounds = (lane.long_hi - lane.long_lo).div_ceil(w);
        if lane.built_span == (lane.short_it, lane.short_end) {
            // Same build list as the previous edge: reuse the table
            // (vertex-centric amortization), skip straight to probing.
            lane.phase = Phase::HashProbeLoad;
            return;
        }
        lane.built_span = (lane.short_it, lane.short_end);
        lane.table_mask = slots - 1;
        lane.table_shift = 32 - slots.trailing_zeros();
        lane.table_spilled = slots > self.shared_slots;
        // The first lane of the virtual warp to reach a new span builds it.
        let mut t = lane.table().borrow_mut();
        if t.span != lane.built_span {
            t.span = lane.built_span;
            t.slots.clear();
            t.slots.resize(slots as usize, HASH_SENTINEL);
            t.walks.clear();
            for i in lane.short_it..lane.short_end {
                let x = mem.read_u32(self.adj.addr_of(i as usize));
                let mut slot = hash_slot(x, lane.table_shift);
                let mut len = 1u32;
                while t.slots[slot as usize] != HASH_SENTINEL {
                    slot = (slot + 1) & lane.table_mask;
                    len += 1;
                }
                t.slots[slot as usize] = x;
                t.walks.push(len);
            }
        }
        drop(t);
        lane.hb_round = 0;
        lane.hb_rounds = s.div_ceil(w);
        lane.phase = Phase::HashBuildLoad;
    }
}

/// Marks a hash table, or a lane, that holds no build span yet.
const NO_SPAN: (u32, u32) = (u32::MAX, u32::MAX);

/// A virtual warp's functional hash table, shared by its lanes.
struct HashTable {
    /// Slot contents ([`HASH_SENTINEL`] = empty).
    slots: Vec<u32>,
    /// Per-build-element chain-walk lengths, indexed by position in the
    /// build list.
    walks: Vec<u32>,
    /// The adjacency span the table was built over ([`NO_SPAN`] = none).
    /// The table is a pure function of it: adjacency is read-only.
    span: (u32, u32),
}

impl Default for HashTable {
    fn default() -> Self {
        HashTable {
            slots: Vec::new(),
            walks: Vec::new(),
            span: NO_SPAN,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    NextEdge,
    LoadEdge2,
    LoadNodeU,
    LoadNodeUEnd,
    LoadNodeV,
    LoadNodeVEnd,
    /// Binary search: load the lane's next element of the shorter list.
    LoadNeedle,
    /// Binary search: one probe over the longer list.
    Probe,
    /// Chunk scan: coalesced load of this lane's element of the longer
    /// list's current `W`-wide chunk (the chunk's last element — the scan
    /// bound — reaches every lane by register shuffle, no extra traffic).
    ChunkLoad,
    /// Chunk scan: lockstep vectorized read (`int4`-style, up to four
    /// elements) of the shorter list; each lane compares the loaded values
    /// against its private chunk element.
    Scan,
    /// Hash: coalesced load of this lane's next build element of the
    /// shorter list.
    HashBuildLoad,
    /// Hash: charge the insert's chain walk over consecutive table slots.
    HashBuildWalk,
    /// Hash: store the element into its final slot.
    HashBuildInsert,
    /// Hash: coalesced load of this lane's next probe element of the
    /// longer list.
    HashProbeLoad,
    /// Hash: charge the probe's chain walk (ends at a match or an empty
    /// slot).
    HashProbeWalk,
    WriteResult,
    Finished,
}

/// One lane of a virtual warp: its registers only. Everything uniform
/// across the grid lives in the kernel, which steps the lane.
pub struct WarpCentricLane {
    edge: usize,
    edge_stride: usize,
    role: u32,
    tid: usize,
    count: u64,
    phase: Phase,
    u: u32,
    v: u32,
    /// Cursor over the shorter list (this lane's stripe).
    short_it: u32,
    short_end: u32,
    /// The longer list's bounds.
    long_lo: u32,
    long_hi: u32,
    /// Current element being searched, and the live binary-search window.
    needle: u32,
    bs_lo: u32,
    bs_hi: u32,
    /// Chunk scan: first index of the longer list's current chunk.
    chunk_base: u32,
    /// Chunk scan: this lane's private element of the chunk.
    chunk_val: u32,
    /// Chunk scan: the chunk's last element (scan advance bound).
    chunk_last: u32,
    /// Chunk scan: this lane's chunk slot is past the list end (its
    /// clamped load must not count matches).
    chunk_dead: bool,
    /// Hash: current run block (run-of-[`HASH_RUN`] index) and offset
    /// within it.
    run_block: usize,
    run_off: usize,
    /// Hash: the virtual warp's table, shared by its lanes. The lanes run
    /// the same phases in lockstep, so the first of them to set up a new
    /// build span builds it and the rest find it built; none reads the
    /// table again before every lane has moved on to that span.
    table: Option<Rc<RefCell<HashTable>>>,
    /// Hash: the adjacency span this lane last set up a table over
    /// ([`NO_SPAN`] = none). Matching spans reuse the table.
    built_span: (u32, u32),
    table_mask: u32,
    table_shift: u32,
    /// Hash: current table exceeds the shared budget and lives in global
    /// scratch.
    table_spilled: bool,
    /// Hash: device address of this virtual warp's scratch window.
    scratch_base: u64,
    /// Hash: build round cursor and total build rounds (`ceil(s / W)`) —
    /// identical across the virtual warp's lanes, which is what keeps the
    /// warp's phases lockstep (and its loads coalesced) even when chain
    /// lengths differ per lane.
    hb_round: u32,
    hb_rounds: u32,
    /// Hash: whether this lane holds a real element in the current round
    /// (lanes past the list end are predicated off and burn issue slots).
    hb_active: bool,
    hb_x: u32,
    /// Hash: the pending chain walk — start slot and this lane's own
    /// length. Charged as a single shared access per round regardless of
    /// length; the bank-conflict degree models the serialization.
    walk_slot: u32,
    walk_len: u32,
    /// Hash: probe round cursor, total probe rounds (`ceil(l / W)`),
    /// predication, and the pending probe outcome.
    pr_round: u32,
    pr_rounds: u32,
    pr_active: bool,
    probe_found: bool,
}

impl WarpCentricLane {
    /// The virtual warp's table, holding this lane's build span.
    fn table(&self) -> &RefCell<HashTable> {
        self.table.as_deref().expect("hash lanes carry a table")
    }

    /// The chain-walk length of build element `i` (a position in the build
    /// list).
    fn build_walk(&self, i: u32) -> u32 {
        let table = self.table().borrow();
        debug_assert_eq!(table.span, self.built_span);
        table.walks[i as usize]
    }

    /// Probe the functional table for `y`: chain-walk length and whether
    /// it is present.
    fn hash_probe(&self, y: u32) -> (u32, bool) {
        let table = self.table().borrow();
        debug_assert_eq!(table.span, self.built_span);
        let mut slot = hash_slot(y, self.table_shift);
        let mut len = 1u32;
        loop {
            let t = table.slots[slot as usize];
            if t == y {
                return (len, true);
            }
            if t == HASH_SENTINEL {
                return (len, false);
            }
            slot = (slot + 1) & self.table_mask;
            len += 1;
        }
    }

    /// Charge the pending chain walk: one shared access over the chain's
    /// consecutive slots (the rare piece wrapping past the table end is
    /// dropped rather than split, so every lane's walk is exactly one
    /// step and the warp stays lockstep). The bank-conflict degree of the
    /// multi-word access is what serializes long chains.
    fn walk_effect(&self) -> Effect {
        let slots = self.table_mask + 1;
        let contiguous = self.walk_len.min(slots - self.walk_slot).max(1);
        Effect::SharedRead {
            addr: self.scratch_base + self.walk_slot as u64 * 4,
            bytes: 4 * contiguous,
            spilled: self.table_spilled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::count_kernel::{CountKernel, KernelArrays};
    use crate::gpu::preprocess::preprocess_full_gpu;
    use crate::gpu::LoopVariant;
    use tc_graph::EdgeArray;
    use tc_simt::{Device, DeviceConfig, LaunchConfig};

    /// Lanes hold only their thread's registers; the kernel steps them.
    /// A kernel copy in every lane would more than double the bytes the
    /// executor walks per warp step.
    #[test]
    fn lanes_hold_registers_only() {
        use crate::gpu::count_kernel::CountLane;
        use std::mem::size_of;
        assert!(size_of::<CountLane>() <= 64, "{}", size_of::<CountLane>());
        assert!(
            size_of::<WarpCentricLane>() <= 176,
            "{}",
            size_of::<WarpCentricLane>()
        );
    }

    fn run_warp_centric(g: &EdgeArray, w: u32) -> (u64, f64) {
        run_with_strategy(g, w, IntersectStrategy::BinarySearch)
    }

    fn run_with_strategy(g: &EdgeArray, w: u32, strategy: IntersectStrategy) -> (u64, f64) {
        let (count, stats) = run_with_strategy_slots(g, w, strategy, HASH_TABLE_SLOTS);
        (count, stats.time_s)
    }

    fn run_with_strategy_slots(
        g: &EdgeArray,
        w: u32,
        strategy: IntersectStrategy,
        shared_slots: u32,
    ) -> (u64, tc_simt::KernelStats) {
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.preinit_context();
        dev.reset_clock();
        let pre = preprocess_full_gpu(&mut dev, g, false, false).unwrap();
        let lc = LaunchConfig::new(16, 64);
        let total = lc.active_threads(32);
        let result = dev.alloc::<u64>(total).unwrap();
        dev.poke(&result, &vec![0u64; total]);
        let scratch = (strategy == IntersectStrategy::Hash)
            .then(|| dev.alloc::<u32>(hash_scratch_len(total, w)).unwrap());
        let kernel = WarpCentricKernel {
            adj: pre.nbr,
            edge_u: pre.owner,
            edge_v: pre.nbr,
            node: pre.node,
            result,
            offset: 0,
            count: pre.m,
            virtual_warp: w,
            use_texture_cache: true,
            strategy,
            scratch,
            shared_slots,
        };
        let stats = dev.launch("warp-centric", lc, &kernel).unwrap();
        (dev.peek(&result).iter().sum(), stats)
    }

    fn run_merge(g: &EdgeArray) -> (u64, f64) {
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.preinit_context();
        dev.reset_clock();
        let pre = preprocess_full_gpu(&mut dev, g, false, false).unwrap();
        let lc = LaunchConfig::new(16, 64);
        let total = lc.active_threads(32);
        let result = dev.alloc::<u64>(total).unwrap();
        dev.poke(&result, &vec![0u64; total]);
        let kernel = CountKernel {
            arrays: KernelArrays::SoA {
                nbr: pre.nbr,
                owner: pre.owner,
            },
            node: pre.node,
            result,
            offset: 0,
            count: pre.m,
            variant: LoopVariant::FinalReadAvoiding,
            use_texture_cache: true,
        };
        let stats = dev.launch("merge", lc, &kernel).unwrap();
        (dev.peek(&result).iter().sum(), stats.time_s)
    }

    fn messy_graph() -> EdgeArray {
        let mut pairs = Vec::new();
        let mut x = 99u64;
        for _ in 0..2500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((x >> 33) % 300) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((x >> 33) % 300) as u32;
            pairs.push((a, b));
        }
        EdgeArray::from_undirected_pairs(pairs)
    }

    #[test]
    fn counts_match_the_merge_kernel() {
        let g = messy_graph();
        let (merge_count, _) = run_merge(&g);
        for w in [1u32, 2, 4, 8] {
            let (count, _) = run_warp_centric(&g, w);
            assert_eq!(count, merge_count, "virtual warp {w}");
        }
    }

    #[test]
    fn chunk_scan_counts_match_the_merge_kernel() {
        let g = messy_graph();
        let (merge_count, _) = run_merge(&g);
        for w in [2u32, 4, 8, 16, 32] {
            let (count, _) = run_with_strategy(&g, w, IntersectStrategy::ChunkScan);
            assert_eq!(count, merge_count, "virtual warp {w}");
        }
    }

    #[test]
    fn chunk_scan_works_on_degenerate_graphs() {
        // Path (no triangles), single triangle, and a clique whose
        // adjacency lists exercise chunk boundaries at every width.
        let path = EdgeArray::from_undirected_pairs(vec![(0, 1), (1, 2), (2, 3)]);
        let tri = EdgeArray::from_undirected_pairs(vec![(0, 1), (1, 2), (0, 2)]);
        let mut clique = Vec::new();
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                clique.push((a, b));
            }
        }
        let clique = EdgeArray::from_undirected_pairs(clique);
        for (g, want) in [(&path, 0u64), (&tri, 1), (&clique, 40 * 39 * 38 / 6)] {
            for w in [2u32, 8, 32] {
                let (count, _) = run_with_strategy(g, w, IntersectStrategy::ChunkScan);
                assert_eq!(count, want, "virtual warp {w}");
            }
        }
    }

    #[test]
    fn hash_counts_match_the_merge_kernel() {
        let g = messy_graph();
        let (merge_count, _) = run_merge(&g);
        for w in [4u32, 8, 16, 32] {
            let (count, stats) =
                run_with_strategy_slots(&g, w, IntersectStrategy::Hash, HASH_TABLE_SLOTS);
            assert_eq!(count, merge_count, "virtual warp {w}");
            assert!(stats.shared_accesses > 0, "hash must hit shared memory");
        }
    }

    #[test]
    fn hash_works_on_degenerate_graphs() {
        let path = EdgeArray::from_undirected_pairs(vec![(0, 1), (1, 2), (2, 3)]);
        let tri = EdgeArray::from_undirected_pairs(vec![(0, 1), (1, 2), (0, 2)]);
        let mut clique = Vec::new();
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                clique.push((a, b));
            }
        }
        let clique = EdgeArray::from_undirected_pairs(clique);
        let empty = EdgeArray::default();
        for (g, want) in [
            (&path, 0u64),
            (&tri, 1),
            (&clique, 40 * 39 * 38 / 6),
            (&empty, 0),
        ] {
            for w in [8u32, 32] {
                let (count, _) =
                    run_with_strategy_slots(g, w, IntersectStrategy::Hash, HASH_TABLE_SLOTS);
                assert_eq!(count, want, "virtual warp {w}");
            }
        }
    }

    #[test]
    fn hash_spilled_tables_stay_exact_and_cost_global_traffic() {
        // Force nearly every table past a tiny shared budget: counts must
        // not change, but the spilled chain walks now travel the global
        // path (transactions) instead of the shared banks.
        let g = messy_graph();
        let (merge_count, _) = run_merge(&g);
        let (on_chip, fits) =
            run_with_strategy_slots(&g, 32, IntersectStrategy::Hash, HASH_TABLE_SLOTS);
        let (spilled, spills) = run_with_strategy_slots(&g, 32, IntersectStrategy::Hash, 8);
        assert_eq!(on_chip, merge_count);
        assert_eq!(spilled, merge_count);
        assert!(
            spills.shared_accesses < fits.shared_accesses,
            "spilled run must demote shared accesses ({} vs {})",
            spills.shared_accesses,
            fits.shared_accesses
        );
        assert!(
            spills.transactions > fits.transactions,
            "spilled walks must show up as global transactions"
        );
    }

    #[test]
    fn hash_beats_chunk_scan_on_skewed_lists() {
        // The tentpole's reason to exist: on long-list edges the hash
        // probe consumes both lists at W elements per lockstep round,
        // where the chunk scan broadcasts only 4 shorter-list elements
        // per round. A clique maximizes long intersections.
        let mut clique = Vec::new();
        for a in 0..120u32 {
            for b in (a + 1)..120 {
                clique.push((a, b));
            }
        }
        let g = EdgeArray::from_undirected_pairs(clique);
        let (chunk_count, chunk) =
            run_with_strategy_slots(&g, 32, IntersectStrategy::ChunkScan, HASH_TABLE_SLOTS);
        let (hash_count, hash) =
            run_with_strategy_slots(&g, 32, IntersectStrategy::Hash, HASH_TABLE_SLOTS);
        assert_eq!(hash_count, chunk_count);
        assert!(
            hash.time_s < chunk.time_s,
            "hash {} should beat chunk scan {} on a clique",
            hash.time_s,
            chunk.time_s
        );
    }

    #[test]
    fn warp_centric_is_not_faster_here() {
        // The paper's §III-D7 negative result: the cooperative kernel's
        // log-factor of extra scattered reads outweighs its intra-edge
        // parallelism on these workloads.
        let g = messy_graph();
        let (_, merge_time) = run_merge(&g);
        let (_, wc_time) = run_warp_centric(&g, 4);
        assert!(
            wc_time > 0.9 * merge_time,
            "warp-centric {wc_time} unexpectedly beats merge {merge_time} decisively"
        );
    }

    #[test]
    fn profiler_counters_expose_the_divergence_overhead() {
        // §III-D7's overhead is visible in the new hardware counters: the
        // cooperative kernel's per-lane binary searches diverge, so the
        // profiler must attribute serialized issue groups to its phase.
        let g = messy_graph();
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.preinit_context();
        dev.reset_clock();
        let pre = preprocess_full_gpu(&mut dev, &g, false, false).unwrap();
        let lc = LaunchConfig::new(16, 64);
        let total = lc.active_threads(32);
        let result = dev.alloc::<u64>(total).unwrap();
        dev.poke(&result, &vec![0u64; total]);
        let kernel = WarpCentricKernel {
            adj: pre.nbr,
            edge_u: pre.owner,
            edge_v: pre.nbr,
            node: pre.node,
            result,
            offset: 0,
            count: pre.m,
            virtual_warp: 4,
            use_texture_cache: true,
            strategy: IntersectStrategy::BinarySearch,
            scratch: None,
            shared_slots: 0,
        };
        let stats = dev
            .with_phase("warp-centric", |d| d.launch("warp-centric", lc, &kernel))
            .unwrap();
        assert!(
            stats.serialized_groups > 0,
            "binary-search lanes must diverge"
        );
        assert!(stats.occupancy > 0.0 && stats.occupancy <= 1.0);
        let profile = dev.profile();
        let span = profile.span("warp-centric").expect("span recorded");
        assert_eq!(span.counters.serialized_groups, stats.serialized_groups);
        assert_eq!(span.counters.divergent_steps, stats.divergent_steps);
        assert!(span.achieved_bandwidth_gbs() > 0.0);
    }

    #[test]
    fn works_on_triangle_free_and_tiny_graphs() {
        let square = EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(run_warp_centric(&square, 4).0, 0);
        let tri = EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 0)]);
        assert_eq!(run_warp_centric(&tri, 2).0, 1);
        let empty = EdgeArray::default();
        assert_eq!(run_warp_centric(&empty, 4).0, 0);
    }
}
