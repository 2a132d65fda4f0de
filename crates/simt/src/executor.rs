//! Cycle-level SIMT execution: warps in lockstep, divergence serialization,
//! per-SM issue and memory pipelines, latency hiding across resident warps.
//!
//! ## Timing model
//!
//! Each SM owns two pipelines and a set of resident warps:
//!
//! * the **issue pipeline** starts `issue_width` instruction groups per
//!   cycle; a warp step whose lanes diverge into `g` distinct effect kinds
//!   occupies `g` issue slots (SIMT serialization);
//! * the **memory pipeline** starts `mem_txn_per_cycle` line transactions
//!   per cycle; a warp's loads are coalesced into line transactions first;
//! * a warp that issued a step may not issue again until the step's
//!   **latency** (worst transaction latency, or the compute latency) has
//!   elapsed — but *other* resident warps may issue meanwhile. That is the
//!   latency hiding that makes occupancy matter and is what the paper's
//!   §III-D5 warp-size experiment manipulates.
//!
//! SMs share nothing but DRAM: the per-SM texture cache is private and the
//! device L2 is address-sliced, so SMs simulate in parallel (tc-par scoped
//! threads) and the kernel's time is the slowest SM's cycle count — then
//! clamped from below by total DRAM traffic over peak DRAM bandwidth (a
//! bandwidth-saturation model).

use crate::arena::Arena;
use crate::cache::{Cache, CacheStats};
use crate::coalesce::coalesce_into;
use crate::config::DeviceConfig;
use crate::error::SimtError;
use crate::kernel::{Effect, Kernel, Lane, MemView};
use crate::sanitizer::{LaneChecker, RawViolation, ShadowView};
use crate::verifier::Access;

/// Grid dimensions for a launch, in the paper's terms (§III-C): number of
/// blocks and threads per block. `warp_split` simulates the reduced-warp
/// trick of §III-D5: with split `s`, only `warp_size / s` lanes of each
/// warp do real work (the caller launches `s`× more blocks to compensate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    pub blocks: u32,
    pub threads_per_block: u32,
    pub warp_split: u32,
}

impl LaunchConfig {
    pub fn new(blocks: u32, threads_per_block: u32) -> Self {
        LaunchConfig {
            blocks,
            threads_per_block,
            warp_split: 1,
        }
    }

    /// Active (working) threads in the grid.
    pub fn active_threads(&self, warp_size: u32) -> usize {
        let warps = self.blocks as usize * (self.threads_per_block / warp_size) as usize;
        warps * (warp_size / self.warp_split) as usize
    }

    pub(crate) fn validate(&self, cfg: &DeviceConfig) -> Result<(), SimtError> {
        if self.blocks == 0 || self.threads_per_block == 0 {
            return Err(SimtError::BadLaunch {
                message: "zero blocks or threads",
            });
        }
        if !self.threads_per_block.is_multiple_of(cfg.warp_size) {
            return Err(SimtError::BadLaunch {
                message: "threads per block must be a multiple of the warp size",
            });
        }
        if self.warp_split == 0 || !cfg.warp_size.is_multiple_of(self.warp_split) {
            return Err(SimtError::BadLaunch {
                message: "warp split must divide the warp size",
            });
        }
        if self.threads_per_block > cfg.max_threads_per_sm {
            return Err(SimtError::BadLaunch {
                message: "block exceeds SM thread capacity",
            });
        }
        Ok(())
    }
}

/// A store buffered during simulation, committed after the kernel retires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingWrite {
    pub addr: u64,
    pub bytes: u32,
    pub value: u64,
}

/// Aggregated observable results of one kernel launch — the quantities
/// Table II reports, plus enough detail for the ablation benches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Slowest SM's pipeline time in cycles.
    pub sm_cycles: f64,
    /// Wall-clock seconds the launch took on the simulated device
    /// (pipeline time vs. DRAM-bandwidth bound, plus launch overhead).
    pub time_s: f64,
    /// Lane steps executed (≈ dynamic instruction count).
    pub lane_steps: u64,
    /// Warp scheduling events.
    pub warp_steps: u64,
    /// Warp steps whose lanes diverged into more than one effect group.
    pub divergent_steps: u64,
    /// Issue slots consumed (one per distinct effect kind per warp step).
    pub issue_groups: u64,
    /// Extra issue slots forced by divergence: Σ (groups − 1) over
    /// divergent warp steps — nvprof's "divergent serialization" analog.
    pub serialized_groups: u64,
    /// Cycles (summed over SMs) the issue pipeline sat idle waiting on
    /// memory/compute latency: `end_cycle − issue_groups / issue_width`.
    pub issue_stall_cycles: f64,
    /// Achieved occupancy: resident threads per SM over the SM's thread
    /// capacity (0..=1).
    pub occupancy: f64,
    /// Read-only (texture) cache statistics — Table II's "cache hit rate".
    pub tex: CacheStats,
    /// L2 slice statistics.
    pub l2: CacheStats,
    /// Line transactions issued to the memory pipeline.
    pub transactions: u64,
    /// Bytes that had to come from / go to DRAM
    /// (`dram_read_bytes + dram_write_bytes`).
    pub dram_bytes: u64,
    /// Bytes fetched from DRAM on cache misses.
    pub dram_read_bytes: u64,
    /// Bytes stored to DRAM (write-through stores).
    pub dram_write_bytes: u64,
    /// `dram_bytes / time_s` — Table II's "bandwidth" column.
    pub achieved_bandwidth_gbs: f64,
    /// On-chip shared-memory requests (hash-table probes and inserts that
    /// did not spill to global scratch).
    pub shared_accesses: u64,
    /// Replay cycles charged for shared-memory bank conflicts:
    /// Σ (conflict degree − 1) × `shared_latency` over warp steps.
    pub shared_conflict_cycles: f64,
}

/// Simulate a kernel launch against an arena snapshot. Returns the stats and
/// the buffered stores; the caller (the [`crate::Device`]) commits the
/// stores and advances the device clock.
pub fn simulate<K: Kernel>(
    cfg: &DeviceConfig,
    arena: &Arena,
    lc: LaunchConfig,
    kernel: &K,
) -> Result<(KernelStats, Vec<PendingWrite>), SimtError> {
    let (stats, writes, _) = simulate_observed(cfg, arena, lc, kernel, None, false)?;
    Ok((stats, writes))
}

/// What the sanitizer saw of one launch's lane memory accesses.
#[derive(Debug, Default)]
pub(crate) struct Observed {
    /// memcheck/initcheck violations, classified inline against the
    /// pre-launch shadow, in access-log order.
    pub(crate) violations: Vec<RawViolation>,
    /// The lane access log (empty unless recording was asked for).
    pub(crate) accesses: Vec<Access>,
    /// Non-scratch load effects (the coalescing lint's denominator).
    pub(crate) global_reads: u64,
    /// Non-scratch store effects.
    pub(crate) global_writes: u64,
}

impl Observed {
    /// Count one lane access, classify it when checking, and log it when
    /// tracing.
    #[inline]
    fn record(&mut self, a: Access, checker: Option<&mut LaneChecker<'_>>, trace: bool) {
        if !a.scratch {
            if a.write {
                self.global_writes += 1;
            } else {
                self.global_reads += 1;
            }
        }
        if let Some(c) = checker {
            c.check_access(&a, &mut self.violations);
        }
        if trace {
            self.accesses.push(a);
        }
    }

    /// Append a later SM's observations (merge in SM index order).
    fn extend(&mut self, other: Observed) {
        self.violations.extend(other.violations);
        self.accesses.extend(other.accesses);
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
    }
}

/// [`simulate`], optionally observing every lane memory access for the
/// sanitizer. With `check`, each SM classifies its accesses (memcheck +
/// initcheck) against the view as it steps them; with `trace`, it also
/// records them. Both are deterministic: per-SM streams are merged in SM
/// index order, and each SM's stream follows its (deterministic) warp
/// schedule. With neither, nothing is observed.
pub(crate) fn simulate_observed<K: Kernel>(
    cfg: &DeviceConfig,
    arena: &Arena,
    lc: LaunchConfig,
    kernel: &K,
    check: Option<ShadowView<'_>>,
    trace: bool,
) -> Result<(KernelStats, Vec<PendingWrite>, Observed), SimtError> {
    lc.validate(cfg)?;
    let warps_per_block = lc.threads_per_block / cfg.warp_size;
    let lanes_per_warp = (cfg.warp_size / lc.warp_split) as usize;
    let total_active = lc.active_threads(cfg.warp_size);
    let resident_blocks = cfg.resident_blocks(lc.threads_per_block);

    // Round-robin block → SM assignment.
    let num_sms = cfg.num_sms as usize;
    let mut sm_blocks: Vec<Vec<u32>> = vec![Vec::new(); num_sms];
    for b in 0..lc.blocks {
        sm_blocks[(b as usize) % num_sms].push(b);
    }

    let mem = MemView::new(arena.bytes());
    let results: Vec<SmResult> = tc_par::map_slice(&sm_blocks, |blocks| {
        simulate_sm(
            cfg,
            mem,
            kernel,
            blocks,
            warps_per_block,
            lanes_per_warp,
            total_active,
            resident_blocks as usize,
            check,
            trace,
        )
    });

    let mut stats = KernelStats::default();
    let mut writes = Vec::new();
    let mut observed = Observed::default();
    for r in results {
        stats.sm_cycles = stats.sm_cycles.max(r.end_cycle);
        stats.lane_steps += r.lane_steps;
        stats.warp_steps += r.warp_steps;
        stats.divergent_steps += r.divergent_steps;
        stats.issue_groups += r.issue_groups;
        stats.serialized_groups += r.serialized_groups;
        stats.issue_stall_cycles +=
            (r.end_cycle - r.issue_groups as f64 / cfg.issue_width as f64).max(0.0);
        stats.transactions += r.transactions;
        stats.dram_read_bytes += r.dram_read_bytes;
        stats.dram_write_bytes += r.dram_write_bytes;
        stats.shared_accesses += r.shared_accesses;
        stats.shared_conflict_cycles += r.shared_conflict_cycles;
        stats.tex.merge(r.tex);
        stats.l2.merge(r.l2);
        writes.extend(r.writes);
        observed.extend(r.observed);
    }
    stats.dram_bytes = stats.dram_read_bytes + stats.dram_write_bytes;
    // Achieved occupancy of the resident set: blocks actually co-resident
    // on the busiest SM times block width, over SM thread capacity.
    let busiest = lc.blocks.div_ceil(cfg.num_sms);
    let co_resident = resident_blocks.min(busiest);
    stats.occupancy = (co_resident * lc.threads_per_block) as f64 / cfg.max_threads_per_sm as f64;
    let pipeline_time = stats.sm_cycles * cfg.cycle_seconds();
    let dram_time = stats.dram_bytes as f64 / (cfg.dram_bandwidth_gbs * 1e9);
    stats.time_s = pipeline_time.max(dram_time) + cfg.launch_overhead_us * 1e-6;
    stats.achieved_bandwidth_gbs = stats.dram_bytes as f64 / stats.time_s / 1e9;
    Ok((stats, writes, observed))
}

struct SmResult {
    end_cycle: f64,
    lane_steps: u64,
    warp_steps: u64,
    divergent_steps: u64,
    issue_groups: u64,
    serialized_groups: u64,
    transactions: u64,
    dram_read_bytes: u64,
    dram_write_bytes: u64,
    shared_accesses: u64,
    shared_conflict_cycles: f64,
    tex: CacheStats,
    l2: CacheStats,
    writes: Vec<PendingWrite>,
    observed: Observed,
}

struct WarpSim<L> {
    lanes: Vec<L>,
    active: Vec<bool>,
    live: usize,
    ready_at: f64,
    block_slot: usize,
    /// Global thread id of lane 0 of this warp (sanitizer attribution).
    tid_base: usize,
}

#[allow(clippy::too_many_arguments)]
fn simulate_sm<K: Kernel>(
    cfg: &DeviceConfig,
    mem: MemView<'_>,
    kernel: &K,
    blocks: &[u32],
    warps_per_block: u32,
    lanes_per_warp: usize,
    total_active: usize,
    resident_blocks: usize,
    check: Option<ShadowView<'_>>,
    trace: bool,
) -> SmResult {
    let mut tex = Cache::new(cfg.tex_cache_bytes, cfg.tex_cache_ways, cfg.line_bytes);
    let l2_slice = (cfg.l2_cache_bytes / cfg.num_sms).max(cfg.line_bytes * cfg.l2_cache_ways);
    let mut l2 = Cache::new(l2_slice, cfg.l2_cache_ways, cfg.line_bytes);

    let spawn_block = |block: u32, at: f64, slot: usize| -> Vec<WarpSim<K::Lane>> {
        (0..warps_per_block)
            .map(|w| {
                let global_warp = block as usize * warps_per_block as usize + w as usize;
                let lanes: Vec<K::Lane> = (0..lanes_per_warp)
                    .map(|l| kernel.spawn(global_warp * lanes_per_warp + l, total_active))
                    .collect();
                WarpSim {
                    active: vec![true; lanes.len()],
                    live: lanes.len(),
                    lanes,
                    ready_at: at,
                    block_slot: slot,
                    tid_base: global_warp * lanes_per_warp,
                }
            })
            .collect()
    };

    // Admit the initial resident set.
    let mut next_block = 0usize;
    let mut warps: Vec<WarpSim<K::Lane>> = Vec::new();
    let mut block_live_warps: Vec<u32> = Vec::new();
    while next_block < blocks.len() && block_live_warps.len() < resident_blocks {
        let slot = block_live_warps.len();
        warps.extend(spawn_block(blocks[next_block], 0.0, slot));
        block_live_warps.push(warps_per_block);
        next_block += 1;
    }

    let mut alu_clock = 0f64;
    let mut mem_clock = 0f64;
    let mut end_cycle = 0f64;
    let mut lane_steps = 0u64;
    let mut warp_steps = 0u64;
    let mut divergent_steps = 0u64;
    let mut issue_groups = 0u64;
    let mut serialized_groups = 0u64;
    let mut transactions = 0u64;
    let mut dram_read_bytes = 0u64;
    let mut dram_write_bytes = 0u64;
    let mut shared_accesses = 0u64;
    let mut shared_conflict_cycles = 0f64;
    let mut writes: Vec<PendingWrite> = Vec::new();
    let mut observed = Observed::default();
    let mut checker = check.map(LaneChecker::new);
    let observing = checker.is_some() || trace;

    let mut effects: Vec<Effect> = Vec::with_capacity(lanes_per_warp);
    let mut reads_cached: Vec<(u64, u32)> = Vec::with_capacity(lanes_per_warp);
    let mut reads_uncached: Vec<(u64, u32)> = Vec::with_capacity(lanes_per_warp);
    let mut lines: Vec<u64> = Vec::with_capacity(lanes_per_warp * 2);
    let mut shared_words: Vec<u64> = Vec::with_capacity(lanes_per_warp * 4);
    let mut bank_counts: Vec<u32> = vec![0; cfg.shared_banks.max(1) as usize];

    loop {
        // Pick the ready warp with the earliest ready time (stable tie-break
        // on index keeps the simulation deterministic).
        let mut chosen: Option<usize> = None;
        for (i, w) in warps.iter().enumerate() {
            if w.live > 0 && chosen.is_none_or(|c| w.ready_at < warps[c].ready_at) {
                chosen = Some(i);
            }
        }
        let Some(wi) = chosen else {
            break; // every admitted warp retired, and admission is eager
        };

        let now = warps[wi].ready_at.max(alu_clock);
        warp_steps += 1;

        // Lockstep: step every active lane once.
        effects.clear();
        reads_cached.clear();
        reads_uncached.clear();
        shared_words.clear();
        let mut write_txns = 0u64;
        let mut compute_latency = 0u32;
        let mut kinds_seen = [false; 7];
        {
            let w = &mut warps[wi];
            for li in 0..w.lanes.len() {
                if !w.active[li] {
                    continue;
                }
                let eff = w.lanes[li].step(&mem);
                lane_steps += 1;
                kinds_seen[eff.kind() as usize] = true;
                if observing {
                    if let Some(a) = lane_access(&eff, (w.tid_base + li) as u32) {
                        observed.record(a, checker.as_mut(), trace);
                    }
                }
                match eff {
                    Effect::Read {
                        addr,
                        bytes,
                        cached,
                    } => {
                        if cached {
                            reads_cached.push((addr, bytes));
                        } else {
                            reads_uncached.push((addr, bytes));
                        }
                    }
                    Effect::Write { addr, bytes, value } => {
                        writes.push(PendingWrite { addr, bytes, value });
                        write_txns += 1;
                        dram_write_bytes += bytes as u64; // write-through
                    }
                    Effect::SharedRead {
                        addr,
                        bytes,
                        spilled,
                    } => {
                        if spilled {
                            // Table overflowed shared memory: the chain walk
                            // reads global scratch through L2/DRAM.
                            reads_uncached.push((addr, bytes));
                        } else {
                            shared_accesses += 1;
                            push_shared_words(&mut shared_words, addr, bytes);
                        }
                    }
                    Effect::SharedWrite {
                        addr,
                        bytes,
                        value,
                        spilled,
                    } => {
                        writes.push(PendingWrite { addr, bytes, value });
                        if spilled {
                            write_txns += 1;
                            dram_write_bytes += bytes as u64; // write-through
                        } else {
                            shared_accesses += 1;
                            push_shared_words(&mut shared_words, addr, bytes);
                        }
                    }
                    Effect::Compute { cycles } => {
                        compute_latency = compute_latency.max(cycles);
                    }
                    Effect::Done => {
                        w.active[li] = false;
                        w.live -= 1;
                    }
                }
            }
        }

        // Issue cost: one slot per distinct effect kind (Done issues nothing).
        let groups = kinds_seen[..6].iter().filter(|&&k| k).count() as u32;
        issue_groups += groups as u64;
        if groups > 1 {
            divergent_steps += 1;
            serialized_groups += (groups - 1) as u64;
        }
        alu_clock = now + groups as f64 / cfg.issue_width as f64;

        // Shared-memory cost: no cache or memory-pipeline traffic, just
        // load-to-use latency replayed once per serialized bank conflict.
        let mut latency = compute_latency as f64;
        if !shared_words.is_empty() {
            let degree = bank_conflict_degree(&mut shared_words, &mut bank_counts);
            latency = latency.max((degree as u64 * cfg.shared_latency as u64) as f64);
            shared_conflict_cycles +=
                ((degree.saturating_sub(1)) as u64 * cfg.shared_latency as u64) as f64;
        }

        // Memory cost: coalesce, probe caches, charge the memory pipeline.
        let mut txns = write_txns;
        if !reads_cached.is_empty() {
            coalesce_into(&reads_cached, cfg.line_bytes, &mut lines);
            txns += lines.len() as u64;
            for &line in &lines {
                let lat = if tex.access(line) {
                    cfg.tex_hit_latency
                } else if l2.access(line) {
                    cfg.l2_hit_latency
                } else {
                    dram_read_bytes += cfg.dram_fetch_bytes as u64;
                    cfg.dram_latency
                };
                latency = latency.max(lat as f64);
            }
        }
        if !reads_uncached.is_empty() {
            coalesce_into(&reads_uncached, cfg.line_bytes, &mut lines);
            txns += lines.len() as u64;
            for &line in &lines {
                let lat = if l2.access(line) {
                    cfg.l2_hit_latency
                } else {
                    dram_read_bytes += cfg.dram_fetch_bytes as u64;
                    cfg.dram_latency
                };
                latency = latency.max(lat as f64);
            }
        }
        transactions += txns;

        let mut completion = alu_clock;
        if txns > 0 {
            mem_clock = mem_clock.max(now) + txns as f64 / cfg.mem_txn_per_cycle;
            completion = completion.max(mem_clock);
        }
        completion += latency;
        end_cycle = end_cycle.max(completion);

        // Retire and admit.
        if warps[wi].live == 0 {
            let slot = warps[wi].block_slot;
            block_live_warps[slot] -= 1;
            if block_live_warps[slot] == 0 && next_block < blocks.len() {
                warps.extend(spawn_block(blocks[next_block], completion, slot));
                block_live_warps[slot] = warps_per_block;
                next_block += 1;
            }
        } else {
            warps[wi].ready_at = completion;
        }
    }

    SmResult {
        end_cycle: end_cycle.max(alu_clock).max(mem_clock),
        lane_steps,
        warp_steps,
        divergent_steps,
        issue_groups,
        serialized_groups,
        transactions,
        dram_read_bytes,
        dram_write_bytes,
        shared_accesses,
        shared_conflict_cycles,
        tex: tex.stats(),
        l2: l2.stats(),
        writes,
        observed,
    }
}

/// The sanitizer's record of a memory effect issued by global thread
/// `lane`; `None` for compute steps and retirement.
fn lane_access(eff: &Effect, lane: u32) -> Option<Access> {
    let (addr, bytes, write, scratch, spilled) = match *eff {
        Effect::Read { addr, bytes, .. } => (addr, bytes, false, false, false),
        Effect::Write { addr, bytes, .. } => (addr, bytes, true, false, false),
        Effect::SharedRead {
            addr,
            bytes,
            spilled,
        } => (addr, bytes, false, true, spilled),
        Effect::SharedWrite {
            addr,
            bytes,
            spilled,
            ..
        } => (addr, bytes, true, true, spilled),
        Effect::Compute { .. } | Effect::Done => return None,
    };
    Some(Access {
        lane,
        addr,
        bytes,
        write,
        scratch,
        spilled,
    })
}

/// Expand one shared access into the 4-byte words it touches. A multi-word
/// access models a linear chain walk over consecutive slots, so every slot
/// counts toward the warp's bank pressure.
fn push_shared_words(words: &mut Vec<u64>, addr: u64, bytes: u32) {
    let first = addr / 4;
    let last = (addr + bytes.max(1) as u64 - 1) / 4;
    words.extend(first..=last);
}

/// Worst per-bank count of *distinct* words across one warp step's shared
/// accesses — the number of serialized replays the step needs. Duplicate
/// words from different lanes broadcast for free.
fn bank_conflict_degree(words: &mut Vec<u64>, counts: &mut [u32]) -> u32 {
    words.sort_unstable();
    words.dedup();
    counts.iter_mut().for_each(|c| *c = 0);
    let banks = counts.len() as u64;
    let mut degree = 0u32;
    for &w in words.iter() {
        let b = (w % banks) as usize;
        counts[b] += 1;
        degree = degree.max(counts[b]);
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::DeviceBuffer;

    /// Kernel: each lane reads `input[tid]`, doubles it, writes `output[tid]`.
    struct DoubleKernel {
        input: DeviceBuffer<u32>,
        output: DeviceBuffer<u32>,
        n: usize,
    }

    enum DoubleState {
        Load,
        Store(u32),
        Finished,
    }

    struct DoubleLane {
        stride: usize,
        i: usize,
        n: usize,
        input: DeviceBuffer<u32>,
        output: DeviceBuffer<u32>,
        state: DoubleState,
        pending: u32,
    }

    impl Lane for DoubleLane {
        fn step(&mut self, mem: &MemView<'_>) -> Effect {
            match self.state {
                DoubleState::Load => {
                    if self.i >= self.n {
                        self.state = DoubleState::Finished;
                        return Effect::Done;
                    }
                    let addr = self.input.addr_of(self.i);
                    self.pending = mem.read_u32(addr);
                    self.state = DoubleState::Store(self.pending * 2);
                    Effect::Read {
                        addr,
                        bytes: 4,
                        cached: true,
                    }
                }
                DoubleState::Store(v) => {
                    let addr = self.output.addr_of(self.i);
                    self.i += self.stride;
                    self.state = DoubleState::Load;
                    Effect::Write {
                        addr,
                        bytes: 4,
                        value: v as u64,
                    }
                }
                DoubleState::Finished => Effect::Done,
            }
        }
    }

    impl Kernel for DoubleKernel {
        type Lane = DoubleLane;
        fn spawn(&self, tid: usize, total: usize) -> DoubleLane {
            DoubleLane {
                stride: total,
                i: tid,
                n: self.n,
                input: self.input,
                output: self.output,
                state: DoubleState::Load,
                pending: 0,
            }
        }
    }

    fn setup(n: usize) -> (DeviceConfig, Arena, DeviceBuffer<u32>, DeviceBuffer<u32>) {
        let cfg = DeviceConfig::gtx_980().with_unlimited_memory();
        let mut arena = Arena::new(u64::MAX);
        let in_addr = arena.alloc((n * 4) as u64).unwrap();
        let out_addr = arena.alloc((n * 4) as u64).unwrap();
        let input = DeviceBuffer::<u32>::new(in_addr, n);
        let output = DeviceBuffer::<u32>::new(out_addr, n);
        let data: Vec<u32> = (0..n as u32).collect();
        arena.write_slice(&input, &data);
        (cfg, arena, input, output)
    }

    fn run_double(n: usize, lc: LaunchConfig) -> (KernelStats, Vec<u32>) {
        let (cfg, mut arena, input, output) = setup(n);
        let kernel = DoubleKernel { input, output, n };
        let (stats, writes) = simulate(&cfg, &arena, lc, &kernel).unwrap();
        for w in writes {
            let i = ((w.addr - output.addr()) / 4) as usize;
            arena.write_at(&output, i, w.value as u32);
        }
        (stats, arena.read_slice(&output))
    }

    #[test]
    fn functional_result_is_exact() {
        let (stats, out) = run_double(1000, LaunchConfig::new(8, 64));
        assert_eq!(out, (0..1000u32).map(|x| x * 2).collect::<Vec<_>>());
        assert!(stats.lane_steps >= 2000, "{}", stats.lane_steps);
        assert!(stats.time_s > 0.0);
        assert!(stats.sm_cycles > 0.0);
    }

    #[test]
    fn grid_stride_handles_more_threads_than_work() {
        let (_, out) = run_double(10, LaunchConfig::new(64, 256));
        assert_eq!(out, (0..10u32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn coalesced_streaming_kernel_has_few_transactions_and_no_reuse() {
        let (stats, _) = run_double(100_000, LaunchConfig::new(128, 64));
        // Consecutive lanes read consecutive words, so a warp's 32 loads
        // coalesce into 4 line transactions — but a pure streaming sweep
        // never revisits a line, so the cache hit rate is ~0. (High hit
        // rates come from *walk* patterns; see the counting-kernel tests in
        // tc-core.)
        assert!(
            stats.tex.hit_rate() < 0.05,
            "hit rate {}",
            stats.tex.hit_rate()
        );
        let loads = stats.tex.accesses;
        // ~1/8 of the per-lane u32 loads become transactions.
        assert!(
            loads as f64 <= 0.15 * stats.lane_steps as f64,
            "{loads} transactions for {} lane steps",
            stats.lane_steps
        );
        assert!(stats.dram_bytes > 0);
        assert!(stats.achieved_bandwidth_gbs > 0.0);
    }

    #[test]
    fn stats_are_deterministic() {
        let (a, _) = run_double(5000, LaunchConfig::new(32, 64));
        let (b, _) = run_double(5000, LaunchConfig::new(32, 64));
        assert_eq!(a.sm_cycles, b.sm_cycles);
        assert_eq!(a.dram_bytes, b.dram_bytes);
        assert_eq!(a.tex, b.tex);
    }

    #[test]
    fn more_blocks_spread_work() {
        // Same total work on 1 block vs 128 blocks: the wide launch must be
        // far faster in simulated cycles.
        let (narrow, _) = run_double(100_000, LaunchConfig::new(1, 64));
        let (wide, _) = run_double(100_000, LaunchConfig::new(128, 64));
        assert!(
            narrow.sm_cycles > 4.0 * wide.sm_cycles,
            "narrow {} vs wide {}",
            narrow.sm_cycles,
            wide.sm_cycles
        );
    }

    #[test]
    fn warp_split_halves_active_lanes() {
        let lc = LaunchConfig {
            blocks: 8,
            threads_per_block: 64,
            warp_split: 2,
        };
        let cfg = DeviceConfig::gtx_980();
        assert_eq!(lc.active_threads(cfg.warp_size), 8 * 2 * 16);
        let (_, out) = run_double(777, lc);
        assert_eq!(out, (0..777u32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn bad_launches_are_rejected() {
        let cfg = DeviceConfig::gtx_980();
        let arena = Arena::new(1024);
        let kernel = DoubleKernel {
            input: DeviceBuffer::new(0, 0),
            output: DeviceBuffer::new(0, 0),
            n: 0,
        };
        for lc in [
            LaunchConfig::new(0, 64),
            LaunchConfig::new(8, 48),
            LaunchConfig {
                blocks: 8,
                threads_per_block: 64,
                warp_split: 5,
            },
            LaunchConfig::new(1, 4096),
        ] {
            assert!(simulate(&cfg, &arena, lc, &kernel).is_err(), "{lc:?}");
        }
    }

    #[test]
    fn latency_hiding_occupancy_helps() {
        // Same work split over 1 warp/block vs 8 warps/block on a single
        // block-slot-limited device: more resident warps hide memory
        // latency, so 64 blocks x 64 threads should beat 256 blocks x 32
        // threads... Simplest robust comparison: one block of 32 vs one
        // block of 512 threads covering the same array; per-thread work
        // shrinks 16x but cycles must shrink far less than 16x without
        // latency hiding — assert they shrink at least 4x (hiding works).
        let (cfg, arena, input, output) = setup(65536);
        let kernel = DoubleKernel {
            input,
            output,
            n: 65536,
        };
        let (narrow, _) = simulate(&cfg, &arena, LaunchConfig::new(1, 32), &kernel).unwrap();
        let (wide, _) = simulate(&cfg, &arena, LaunchConfig::new(1, 512), &kernel).unwrap();
        assert!(
            wide.sm_cycles * 4.0 < narrow.sm_cycles,
            "wide {} vs narrow {}",
            wide.sm_cycles,
            narrow.sm_cycles
        );
    }

    #[test]
    fn divergence_is_detected_and_serialized() {
        /// Lanes alternate: even lanes compute, odd lanes read — permanent
        /// two-way divergence.
        struct DivergentKernel {
            input: DeviceBuffer<u32>,
        }
        struct DivergentLane {
            even: bool,
            remaining: u32,
            addr: u64,
        }
        impl Lane for DivergentLane {
            fn step(&mut self, _mem: &MemView<'_>) -> Effect {
                if self.remaining == 0 {
                    return Effect::Done;
                }
                self.remaining -= 1;
                if self.even {
                    Effect::Compute { cycles: 2 }
                } else {
                    Effect::Read {
                        addr: self.addr,
                        bytes: 4,
                        cached: true,
                    }
                }
            }
        }
        impl Kernel for DivergentKernel {
            type Lane = DivergentLane;
            fn spawn(&self, tid: usize, _total: usize) -> DivergentLane {
                DivergentLane {
                    even: tid.is_multiple_of(2),
                    remaining: 16,
                    addr: self.input.addr_of(tid % self.input.len()),
                }
            }
        }
        let (cfg, arena, input, _) = setup(1024);
        let kernel = DivergentKernel { input };
        let (stats, _) = simulate(&cfg, &arena, LaunchConfig::new(2, 64), &kernel).unwrap();
        // Every working step has two effect groups.
        assert!(
            stats.divergent_steps as f64 > 0.8 * stats.warp_steps as f64,
            "{} divergent of {}",
            stats.divergent_steps,
            stats.warp_steps
        );
    }

    #[test]
    fn uniform_kernel_does_not_diverge() {
        let (cfg, arena, input, output) = setup(4096);
        let kernel = DoubleKernel {
            input,
            output,
            n: 4096,
        };
        let (stats, _) = simulate(&cfg, &arena, LaunchConfig::new(8, 64), &kernel).unwrap();
        // Lanes stay in lockstep through identical phases; divergence only
        // appears at the ragged tail when some lanes run out of work.
        assert!(
            (stats.divergent_steps as f64) < 0.2 * stats.warp_steps as f64,
            "{} divergent of {}",
            stats.divergent_steps,
            stats.warp_steps
        );
    }

    #[test]
    fn shared_accesses_charge_bank_conflicts_not_dram() {
        /// Every lane issues `reps` shared reads: either all to distinct
        /// banks (word stride 1) or all to one bank (word stride = bank
        /// count), the textbook 32-way conflict.
        struct SharedKernel {
            base: u64,
            word_stride: u64,
        }
        struct SharedLane {
            addr: u64,
            left: u32,
        }
        impl Lane for SharedLane {
            fn step(&mut self, _mem: &MemView<'_>) -> Effect {
                if self.left == 0 {
                    return Effect::Done;
                }
                self.left -= 1;
                Effect::SharedRead {
                    addr: self.addr,
                    bytes: 4,
                    spilled: false,
                }
            }
        }
        impl Kernel for SharedKernel {
            type Lane = SharedLane;
            fn spawn(&self, tid: usize, _total: usize) -> SharedLane {
                SharedLane {
                    addr: self.base + tid as u64 * self.word_stride * 4,
                    left: 64,
                }
            }
        }
        let (cfg, arena, input, _) = setup(64 * 1024);
        let lc = LaunchConfig::new(1, 32);
        let run = |word_stride| {
            let kernel = SharedKernel {
                base: input.addr(),
                word_stride,
            };
            simulate(&cfg, &arena, lc, &kernel).unwrap().0
        };
        let clean = run(1);
        let conflicted = run(cfg.shared_banks as u64);
        // Shared traffic never touches caches, DRAM, or the mem pipeline.
        for s in [&clean, &conflicted] {
            assert_eq!(s.transactions, 0);
            assert_eq!(s.dram_bytes, 0);
            assert_eq!(s.tex.accesses, 0);
            assert_eq!(s.shared_accesses, 64 * 32);
        }
        assert_eq!(clean.shared_conflict_cycles, 0.0);
        assert!(conflicted.shared_conflict_cycles > 0.0);
        assert!(
            conflicted.sm_cycles > 4.0 * clean.sm_cycles,
            "conflicted {} vs clean {}",
            conflicted.sm_cycles,
            clean.sm_cycles
        );
    }

    #[test]
    fn inline_checks_match_a_replay_of_the_logged_trace() {
        use crate::sanitizer::{FindingKind, SanitizerMode};

        /// Each lane loads, stores and probes scratch once, at tid-indexed
        /// addresses, so the upper lanes run past every buffer: guard
        /// window and out-of-bounds reads, out-of-bounds stores, reads of
        /// never-written bytes, and spilled and on-chip scratch traffic.
        struct MixedKernel {
            input: DeviceBuffer<u32>,
            half_init: DeviceBuffer<u32>,
            output: DeviceBuffer<u32>,
            table: DeviceBuffer<u32>,
        }
        struct MixedLane {
            tid: u64,
            step: u32,
            k: (u64, u64, u64, u64),
        }
        impl Lane for MixedLane {
            fn step(&mut self, _mem: &MemView<'_>) -> Effect {
                let (input, half_init, output, table) = self.k;
                let t = self.tid;
                self.step += 1;
                match self.step {
                    1 => Effect::Read {
                        addr: input + 4 * t,
                        bytes: 4,
                        cached: true,
                    },
                    2 => Effect::Read {
                        addr: half_init + 4 * (t % 64),
                        bytes: 4,
                        cached: false,
                    },
                    3 => Effect::SharedWrite {
                        addr: table + 4 * (t % 100),
                        bytes: 4,
                        value: t,
                        spilled: t.is_multiple_of(3),
                    },
                    4 => Effect::SharedRead {
                        addr: table + 4 * t,
                        bytes: 8,
                        spilled: t.is_multiple_of(5),
                    },
                    5 => Effect::Write {
                        addr: output + 4 * t,
                        bytes: 4,
                        value: t,
                    },
                    6 => Effect::Compute { cycles: 4 },
                    _ => Effect::Done,
                }
            }
        }
        impl Kernel for MixedKernel {
            type Lane = MixedLane;
            fn spawn(&self, tid: usize, _total: usize) -> MixedLane {
                MixedLane {
                    tid: tid as u64,
                    step: 0,
                    k: (
                        self.input.addr(),
                        self.half_init.addr(),
                        self.output.addr(),
                        self.table.addr(),
                    ),
                }
            }
        }

        let cfg = DeviceConfig::gtx_980().with_unlimited_memory();
        let mut arena = Arena::new(u64::MAX);
        arena.set_sanitizer(SanitizerMode::Check);
        let mut buf =
            |len: usize| DeviceBuffer::<u32>::new(arena.alloc(len as u64 * 4).unwrap(), len);
        let (input, half_init, output, table) = (buf(200), buf(64), buf(250), buf(100));
        arena.write_slice(&input, &[1u32; 200]);
        arena.write_slice(&half_init.slice(0, 32), &[2u32; 32]);
        let kernel = MixedKernel {
            input,
            half_init,
            output,
            table,
        };
        let lc = LaunchConfig::new(4, 64);
        let shadow = arena.shadow().unwrap();
        let settled = shadow.settled();
        let view = shadow.launch_view(&settled);

        let (s_inline, w_inline, inline) =
            simulate_observed(&cfg, &arena, lc, &kernel, Some(view), false).unwrap();
        let (s_logged, w_logged, logged) =
            simulate_observed(&cfg, &arena, lc, &kernel, None, true).unwrap();
        assert!(inline.accesses.is_empty(), "no log unless asked for");
        assert!(logged.violations.is_empty(), "no checks unless asked for");
        assert_eq!(logged.accesses.len(), 256 * 5);
        assert_eq!((inline.global_reads, inline.global_writes), (512, 256));
        assert_eq!(
            (inline.global_reads, inline.global_writes),
            (logged.global_reads, logged.global_writes)
        );

        let mut replayed = Vec::new();
        for a in &logged.accesses {
            LaneChecker::new(shadow.view()).check_access(a, &mut replayed);
        }
        assert_eq!(inline.violations, replayed);
        for kind in [
            FindingKind::OobRead,
            FindingKind::OobWrite,
            FindingKind::UninitRead,
        ] {
            assert!(
                inline.violations.iter().any(|v| v.kind == kind),
                "{kind} missing"
            );
        }

        // Observation never perturbs the simulation.
        let (s_plain, w_plain) = simulate(&cfg, &arena, lc, &kernel).unwrap();
        assert_eq!(s_inline, s_plain);
        assert_eq!(s_logged, s_plain);
        assert_eq!(w_inline, w_plain);
        assert_eq!(w_logged, w_plain);
    }

    #[test]
    fn zero_work_kernel_costs_only_overhead() {
        let (cfg, arena, input, output) = setup(0);
        let kernel = DoubleKernel {
            input,
            output,
            n: 0,
        };
        let (stats, writes) = simulate(&cfg, &arena, LaunchConfig::new(8, 64), &kernel).unwrap();
        assert!(writes.is_empty());
        assert_eq!(stats.dram_bytes, 0);
        assert!(stats.time_s >= cfg.launch_overhead_us * 1e-6);
    }
}
