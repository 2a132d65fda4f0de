//! Workload-balanced kernel scheduling: degree-binned dispatch with a
//! deterministic auto-tuner.
//!
//! Polak's §III-C kernel assigns one thread per edge, so on skewed graphs
//! a few heavy edges (huge adjacency intersections) dominate the slowest
//! warp while most lanes idle. The fix, following the workload-balancing
//! line of Wang et al. (2018) and TRUST (2021), is to *bin* edges by an
//! estimated intersection work and dispatch each bin to the kernel that
//! wins there:
//!
//! * the per-edge work estimate is `min(outdeg(u), outdeg(v))` over the
//!   oriented CSR — an upper bound on the merge's match count and a good
//!   proxy for its length, available from the `node` array already
//!   resident after preprocessing;
//! * a charged on-device pass builds `(work << 32) | edge` keys, radix
//!   sorts them with the same [`tc_simt::primitives::sort_u64`] the
//!   preprocessing phase uses, and gathers the bin-ordered endpoint
//!   arrays `eu`/`ev` (the adjacency array itself is *not* reordered —
//!   `node` keeps pointing into it);
//! * light bins run the merge [`CountKernel`] over the gathered arrays
//!   (sorted order alone balances per-lane totals and keeps warp-mates on
//!   similar-length merges), heavy bins run the [`WarpCentricKernel`]
//!   with a per-bin virtual-warp width so one hub edge is shared by `W`
//!   lanes.
//!
//! `dispatch_bins` is the one launch path of every GPU topology: the
//! single device, each multi-GPU device's stripe and each cluster shard
//! count through it.
//!
//! The auto-tuner is **static and deterministic**: it reads only the work
//! histogram (no measurement feedback), so a given graph + schedule always
//! produces the same plan, the same device operations, and byte-identical
//! counts — the property the engine cache and the golden perf tests rely
//! on. Uniform low-degree graphs (mean work below the gate) tune to *no
//! plan* at all: the scheduler charges nothing and the default
//! thread-per-edge kernel runs unchanged. Calibration against the
//! simulated GTX 980 showed the chunk-scan kernel dominating the merge
//! kernel at every work level above the gate, so the *auto* plan uses
//! chunk-scan bins only; the merge-light-bin shape stays reachable
//! through [`KernelSchedule::BalancedFixed`].

use std::fmt;

use tc_simt::primitives::{charge_transform_pass, reduce_sum_u64, sort_u64};
use tc_simt::{Device, DeviceBuffer, KernelStats, LaunchConfig};

use crate::count::GpuOptions;
use crate::error::CoreError;
use crate::gpu::count_kernel::{CountKernel, KernelArrays};
use crate::gpu::preprocess::Preprocessed;
use crate::gpu::warp_centric::{
    hash_scratch_len, hash_shared_slots, IntersectStrategy, WarpCentricKernel,
};

/// How counting work is mapped onto the grid — the scheduling knob on
/// [`crate::GpuOptions`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum KernelSchedule {
    /// The paper's §III-C mapping: thread `tid` takes edges `tid`,
    /// `tid + grid`, … in input order. No binning pass, no extra memory.
    #[default]
    ThreadPerEdge,
    /// Degree-binned dispatch with auto-tuned bin thresholds and widths
    /// (token `balanced`). Falls back to no plan at all when the tuner
    /// finds the graph uniform and low-degree.
    Balanced,
    /// Degree-binned dispatch with an explicit light/heavy threshold and
    /// heavy-bin virtual-warp width (token `balanced:<t>x<w>`): edges with
    /// work `< t` go to the merge kernel, the rest to the warp-centric
    /// kernel with width `w`. `t = 0` sends everything heavy;
    /// `t = u32::MAX` keeps everything in the sorted light bin.
    BalancedFixed { threshold: u32, width: u32 },
    /// Like [`KernelSchedule::Balanced`], but the heavy tail runs the
    /// TRUST-style shared-memory hash kernel instead of the wide chunk
    /// scan (token `balanced+hash`). Falls back to the plain balanced
    /// plan when the tail is too thin for the hash bin to pay off.
    BalancedHash,
}

impl KernelSchedule {
    /// Virtual-warp widths the heavy bins may use (must divide the warp
    /// size of every device preset).
    pub const WIDTHS: [u32; 5] = [2, 4, 8, 16, 32];

    /// The token suffix appended to a backend device token (`""` for the
    /// default schedule).
    ///
    /// ```
    /// use tc_core::KernelSchedule;
    ///
    /// assert_eq!(KernelSchedule::ThreadPerEdge.token_suffix(), "");
    /// assert_eq!(KernelSchedule::Balanced.token_suffix(), "/balanced");
    /// assert_eq!(KernelSchedule::BalancedHash.token_suffix(), "/balanced+hash");
    /// assert_eq!(
    ///     KernelSchedule::BalancedFixed { threshold: 16, width: 8 }.token_suffix(),
    ///     "/balanced:16x8",
    /// );
    /// ```
    pub fn token_suffix(&self) -> String {
        match self {
            KernelSchedule::ThreadPerEdge => String::new(),
            KernelSchedule::Balanced => "/balanced".into(),
            KernelSchedule::BalancedFixed { threshold, width } => {
                format!("/balanced:{threshold}x{width}")
            }
            KernelSchedule::BalancedHash => "/balanced+hash".into(),
        }
    }

    /// Parse the `balanced[:<t>x<w>]` part of a backend token (the part
    /// after the `/`). `None` when it is not a schedule clause.
    ///
    /// ```
    /// use tc_core::KernelSchedule;
    ///
    /// assert_eq!(
    ///     KernelSchedule::parse_clause("balanced"),
    ///     Some(KernelSchedule::Balanced),
    /// );
    /// assert_eq!(
    ///     KernelSchedule::parse_clause("balanced:16x8"),
    ///     Some(KernelSchedule::BalancedFixed { threshold: 16, width: 8 }),
    /// );
    /// // Widths must be 1 or divide every preset's warp size.
    /// assert_eq!(KernelSchedule::parse_clause("balanced:16x3"), None);
    /// assert_eq!(KernelSchedule::parse_clause("split:2"), None);
    /// ```
    pub fn parse_clause(clause: &str) -> Option<KernelSchedule> {
        if clause == "balanced" {
            return Some(KernelSchedule::Balanced);
        }
        if clause == "balanced+hash" {
            return Some(KernelSchedule::BalancedHash);
        }
        let spec = clause.strip_prefix("balanced:")?;
        let (t, w) = spec.split_once('x')?;
        let threshold = t.parse::<u32>().ok()?;
        let width = w.parse::<u32>().ok()?;
        if width != 1 && !Self::WIDTHS.contains(&width) {
            return None;
        }
        Some(KernelSchedule::BalancedFixed { threshold, width })
    }
}

impl fmt::Display for KernelSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelSchedule::ThreadPerEdge => f.write_str("thread-per-edge"),
            KernelSchedule::Balanced => f.write_str("balanced"),
            KernelSchedule::BalancedFixed { threshold, width } => {
                write!(f, "balanced(t={threshold}, w={width})")
            }
            KernelSchedule::BalancedHash => f.write_str("balanced+hash"),
        }
    }
}

/// One work bin of a [`BinPlan`]: a contiguous range of the bin-ordered
/// edge arrays plus the kernel strategy that serves it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bin {
    /// First index into the gathered `eu`/`ev` arrays.
    pub start: usize,
    /// Edges in the bin.
    pub len: usize,
    /// Virtual-warp width: 1 = merge
    /// [`CountKernel`], >1 =
    /// [`WarpCentricKernel`] with
    /// `width` lanes per edge.
    pub width: u32,
    /// Warp-centric bins only: intersect by shared-memory hash table
    /// ([`IntersectStrategy::Hash`](super::warp_centric::IntersectStrategy))
    /// instead of the chunk scan.
    pub hash: bool,
}

/// A tuned bin boundary: edges with work `< max_work` (and above the
/// previous spec's bound) belong to a bin served at `width`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BinSpec {
    /// Exclusive upper work bound (`u32::MAX` = open-ended last bin).
    pub max_work: u32,
    /// Virtual-warp width of the bin's kernel (1 = merge kernel).
    pub width: u32,
    /// Serve the bin with the hash-intersection kernel (width > 1 only).
    pub hash: bool,
}

/// The device-resident schedule: bin-ordered endpoint arrays plus the bin
/// table. Built once per prepared graph (cost charged to the schedule
/// phase), reused by every count, freed on release.
#[derive(Clone, Debug)]
pub struct BinPlan {
    /// First endpoints, bin order (gathered copy; coalesced kernel reads).
    pub eu: DeviceBuffer<u32>,
    /// Second endpoints, bin order.
    pub ev: DeviceBuffer<u32>,
    /// Disjoint bins covering `[0, m)` in ascending work order.
    pub bins: Vec<Bin>,
}

impl BinPlan {
    /// Bins that actually contain edges.
    pub fn occupied(&self) -> impl Iterator<Item = &Bin> {
        self.bins.iter().filter(|b| b.len > 0)
    }
}

// ---------------------------------------------------------------------------
// The deterministic static auto-tuner.
//
// All constants are structural (calibrated once against the simulator, not
// measured per run): the tuner sees only the work multiset, so the plan is
// a pure function of the graph + schedule.
// ---------------------------------------------------------------------------

/// Mean work below which binning cannot pay for itself: on uniform
/// low-degree graphs (the Watts–Strogatz regime) the thread-per-edge
/// merge is already balanced, its short intersections leave nothing for
/// the chunk loads to amortize, and the binning passes plus the per-bin
/// launch overhead outweigh the win.
const UNIFORM_MEAN_WORK: f64 = 10.0;
/// One 32-byte line holds 8 × u32: a chunk of 8 longer-list elements is
/// exactly one coalesced transaction, the structural optimum for the
/// chunk-scan width (wider chunks over-fetch when the scan ends early,
/// narrower ones waste the line).
const LINE_WIDTH: u32 = 8;
/// Edges at or above this work estimate go to a wider bin: their long
/// scans amortize the bigger chunk's over-fetch.
const TAIL_WORK: u32 = 256;
/// Minimum fraction of edges the tail bin must hold to justify its extra
/// kernel launch.
const TAIL_MIN_FRACTION: f64 = 0.01;
/// Work level from which the hash kernel beats the wide chunk scan. The
/// static rule comes from the two kernels' per-edge costs at width 32
/// (`s` = shorter list, `l` = longer): the chunk scan issues `~s/4`
/// lockstep broadcast rounds plus `l/32` chunk loads, the hash kernel
/// `3⌈s/32⌉ + 2⌈l/32⌉` rounds — so the hash side wins once the shorter
/// list spans several warp-wide rounds and its one-transaction-per-round
/// saving outweighs the table build and the shared-memory walk latency.
/// Below this level the broadcast scan already covers the list in a
/// couple of rounds and the build cannot amortize.
const HASH_MIN_WORK: u32 = 64;

/// Per-edge work estimate over the oriented CSR: `min` of the endpoint
/// out-degrees (an upper bound on the intersection size and a proxy for
/// the merge length).
///
/// ```
/// use tc_core::gpu::schedule::edge_work;
///
/// // Oriented CSR: v0 -> [1, 2], v1 -> [2], v2 -> [].
/// let node = [0u32, 2, 3, 3];
/// let owner = [0u32, 0, 1];
/// let nbr = [1u32, 2, 2];
/// // Arc (0,1): min(deg 2, deg 1) = 1; arcs into the sink v2 cost 0.
/// assert_eq!(edge_work(&owner, &nbr, &node), vec![1, 0, 0]);
/// ```
pub fn edge_work(owner: &[u32], nbr: &[u32], node: &[u32]) -> Vec<u32> {
    owner
        .iter()
        .zip(nbr)
        .map(|(&u, &v)| {
            let du = node[u as usize + 1] - node[u as usize];
            let dv = node[v as usize + 1] - node[v as usize];
            du.min(dv)
        })
        .collect()
}

/// The static auto-tuner: pick bin specs from the work multiset, or `None`
/// when binning cannot pay for itself. Deterministic — a pure function of
/// its input.
///
/// ```
/// use tc_core::gpu::schedule::auto_bin_specs;
///
/// // Uniform low-degree work tunes to no plan at all.
/// let uniform: Vec<u32> = vec![3; 1000];
/// assert!(auto_bin_specs(&uniform).is_none());
///
/// // A skewed multiset with a real heavy tail earns a two-bin plan:
/// // line-width chunks for the bulk, width-32 for the tail.
/// let mut skewed: Vec<u32> = vec![20; 5000];
/// skewed.extend([2000u32; 100]);
/// let specs = auto_bin_specs(&skewed).unwrap();
/// assert_eq!(specs.len(), 2);
/// assert_eq!(specs[1].width, 32);
/// ```
pub fn auto_bin_specs(work: &[u32]) -> Option<Vec<BinSpec>> {
    let m = work.len();
    if m == 0 {
        return None;
    }
    let mean = work.iter().map(|&w| w as u64).sum::<u64>() as f64 / m as f64;
    if mean < UNIFORM_MEAN_WORK {
        // Uniform low-degree: the thread-per-edge kernel is already
        // balanced and the binning passes cannot pay for themselves.
        return None;
    }
    // Calibration against the simulated GTX 980: the chunk-scan kernel
    // beats the merge kernel at *every* work level once the mean clears
    // the gate — a light merge bin never recovered its extra launch — so
    // the plan is chunk-scan bins only, line-width chunks, with a wider
    // bin for the heavy tail when it holds enough edges to amortize its
    // launch.
    let tail = work.iter().filter(|&&w| w >= TAIL_WORK).count();
    if (tail as f64) >= TAIL_MIN_FRACTION * m as f64 {
        return Some(vec![
            BinSpec {
                max_work: TAIL_WORK,
                width: LINE_WIDTH,
                hash: false,
            },
            BinSpec {
                max_work: u32::MAX,
                width: 32,
                hash: false,
            },
        ]);
    }
    Some(vec![BinSpec {
        max_work: u32::MAX,
        width: LINE_WIDTH,
        hash: false,
    }])
}

/// The hash variant of the static tuner: identical gates, but edges whose
/// work clears `HASH_MIN_WORK` form a width-32 hash bin (when they are
/// numerous enough to amortize its launch — otherwise the plan degrades
/// to the plain balanced one). Deterministic, like [`auto_bin_specs`].
///
/// ```
/// use tc_core::gpu::schedule::{auto_bin_specs, auto_bin_specs_hash};
///
/// let mut skewed: Vec<u32> = vec![20; 5000];
/// skewed.extend([2000u32; 100]);
/// let specs = auto_bin_specs_hash(&skewed).unwrap();
/// assert!(specs.last().unwrap().hash, "the heavy tail probes by hash");
///
/// // With no tail past the hash gate the plan degrades to the plain
/// // balanced one — never worse than `balanced`.
/// let mild: Vec<u32> = vec![25; 10_000];
/// assert_eq!(auto_bin_specs_hash(&mild), auto_bin_specs(&mild));
/// ```
pub fn auto_bin_specs_hash(work: &[u32]) -> Option<Vec<BinSpec>> {
    let m = work.len();
    if m == 0 {
        return None;
    }
    let mean = work.iter().map(|&w| w as u64).sum::<u64>() as f64 / m as f64;
    if mean < UNIFORM_MEAN_WORK {
        return None;
    }
    let heavy = work.iter().filter(|&&w| w >= HASH_MIN_WORK).count();
    if (heavy as f64) < TAIL_MIN_FRACTION * m as f64 {
        return auto_bin_specs(work);
    }
    Some(vec![
        BinSpec {
            max_work: HASH_MIN_WORK,
            width: LINE_WIDTH,
            hash: false,
        },
        BinSpec {
            max_work: u32::MAX,
            width: 32,
            hash: true,
        },
    ])
}

/// Bin specs for a schedule, or `None` when no plan should be built.
pub(crate) fn bin_specs(schedule: KernelSchedule, work: &[u32]) -> Option<Vec<BinSpec>> {
    match schedule {
        KernelSchedule::ThreadPerEdge => None,
        KernelSchedule::Balanced => auto_bin_specs(work),
        KernelSchedule::BalancedHash => auto_bin_specs_hash(work),
        KernelSchedule::BalancedFixed { threshold, width } => {
            if work.is_empty() {
                return None;
            }
            Some(vec![
                BinSpec {
                    max_work: threshold,
                    width: 1,
                    hash: false,
                },
                BinSpec {
                    max_work: u32::MAX,
                    width: width.max(1),
                    hash: false,
                },
            ])
        }
    }
}

/// Build the device-resident [`BinPlan`] for a preprocessed graph, or
/// `None` when the schedule needs none: host mirrors of the oriented CSR
/// feed [`build_plan_from_host`].
pub(crate) fn build_plan(
    dev: &mut Device,
    pre: &Preprocessed,
    schedule: KernelSchedule,
) -> Result<Option<BinPlan>, CoreError> {
    // Free *planning* reads (the tuner is host code, like every
    // launch-geometry decision); the charged passes do the actual device
    // data movement.
    let owner = dev.peek(&pre.owner);
    let nbr = dev.peek(&pre.nbr);
    let node = dev.peek(&pre.node);
    let work = edge_work(&owner, &nbr, &node);
    build_plan_from_host(dev, &owner, &nbr, &work, schedule)
}

/// Build a [`BinPlan`] over host copies of the edge endpoints `eu`/`ev`
/// and their work estimates — the whole oriented CSR of a device, or one
/// cluster shard's local arrays. Every data movement is charged:
///
/// 1. a work-estimate pass reads the edge endpoints and their four node
///    cells and writes packed `(work << 32) | edge` keys;
/// 2. [`sort_u64`] bins the keys (radix passes + the double-buffer peak,
///    exactly like preprocessing's edge sort);
/// 3. a gather pass reads the sorted keys and the endpoint arrays and
///    writes the bin-ordered `eu`/`ev` copies.
///
/// Bin boundaries are partition points of the sorted work values — the
/// tuner already knows the work multiset, so no extra device pass is
/// needed to find them.
pub(crate) fn build_plan_from_host(
    dev: &mut Device,
    eu: &[u32],
    ev: &[u32],
    work: &[u32],
    schedule: KernelSchedule,
) -> Result<Option<BinPlan>, CoreError> {
    let m = work.len();
    let Some(specs) = bin_specs(schedule, work) else {
        return Ok(None);
    };
    for spec in &specs {
        assert!(
            spec.width == 1 || dev.config().warp_size.is_multiple_of(spec.width),
            "virtual-warp width {} must divide the warp size {}",
            spec.width,
            dev.config().warp_size
        );
    }

    let mb = m as u64;
    // Pass 1: work-estimate keys. Reads eu/ev (8 B) + four node cells
    // (16 B) per edge, writes one u64 key per edge.
    let keys = dev.alloc::<u64>(m)?;
    let mut host_keys: Vec<u64> = work
        .iter()
        .enumerate()
        .map(|(i, &w)| ((w as u64) << 32) | i as u64)
        .collect();
    dev.poke(&keys, &host_keys);
    // The binning passes bill to named sub-phases of the caller's
    // `schedule` phase: `repro profile` must attribute this overhead to
    // scheduling, not fold it into whichever span is otherwise open.
    dev.with_phase("bin-sort", |d| {
        charge_transform_pass(d, "schedule: work-estimate keys", mb * 24, mb * 8)
    });

    // Pass 2: radix sort by (work, edge index) — the stable tiebreak keeps
    // the plan independent of anything but the graph.
    dev.with_phase("bin-sort", |d| sort_u64(d, &keys, m))?;
    host_keys.sort_unstable();

    // Pass 3: gather the bin-ordered endpoint arrays. Reads the sorted
    // keys (8 B) plus two scattered endpoint loads (8 B), writes 8 B.
    let gathered_eu = dev.alloc::<u32>(m)?;
    let gathered_ev = dev.alloc::<u32>(m)?;
    let gather = |src: &[u32]| -> Vec<u32> {
        host_keys
            .iter()
            .map(|&k| src[(k & 0xffff_ffff) as usize])
            .collect()
    };
    dev.poke(&gathered_eu, &gather(eu));
    dev.poke(&gathered_ev, &gather(ev));
    dev.with_phase("bin-gather", |d| {
        charge_transform_pass(d, "schedule: bin gather", mb * 16, mb * 8)
    });
    dev.free(keys)?;

    // Bin boundaries: partition points of the sorted work sequence.
    let sorted_work: Vec<u32> = host_keys.iter().map(|&k| (k >> 32) as u32).collect();
    let mut bins = Vec::with_capacity(specs.len());
    let mut start = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let end = if i + 1 == specs.len() {
            m
        } else {
            sorted_work.partition_point(|&w| w < spec.max_work)
        };
        bins.push(Bin {
            start,
            len: end - start,
            width: spec.width,
            hash: spec.hash,
        });
        start = end;
    }
    debug_assert_eq!(start, m, "bins must cover every edge");
    Ok(Some(BinPlan {
        eu: gathered_eu,
        ev: gathered_ev,
        bins,
    }))
}

/// Free the plan's device buffers.
pub(crate) fn free_plan(dev: &mut Device, plan: &BinPlan) -> Result<(), CoreError> {
    dev.free(plan.eu)?;
    dev.free(plan.ev)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Bin dispatch: the one launch path of every GPU topology.
// ---------------------------------------------------------------------------

/// The edge ranges one [`dispatch_bins`] call covers.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Bins<'a> {
    /// The paper's thread-per-edge mapping over `[0, m)`: one merge-kernel
    /// launch, made even when the range (or this device's stripe of it)
    /// is empty.
    Whole(usize),
    /// A bin plan's bins, each served by the kernel its width selects;
    /// bins whose range (or stripe) is empty launch nothing.
    Plan(&'a [Bin]),
}

/// The share of every bin one device counts: device `index` of `of` takes
/// the contiguous slice `[len·index/of, len·(index+1)/of)`, so under a
/// plan every device sees the same light/heavy mix (§III-E's stripes).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stripe {
    pub index: usize,
    pub of: usize,
}

impl Stripe {
    /// One device counting everything.
    pub const WHOLE: Stripe = Stripe { index: 0, of: 1 };

    /// This stripe's `(offset, count)` of `bin`.
    fn range(self, bin: &Bin) -> (usize, usize) {
        let offset = bin.start + bin.len * self.index / self.of;
        let end = bin.start + bin.len * (self.index + 1) / self.of;
        (offset, end - offset)
    }
}

/// The device-resident state a dispatch launches against.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DispatchCtx<'a> {
    pub opts: &'a GpuOptions,
    pub lc: LaunchConfig,
    /// CSR offsets the intersections index.
    pub node: DeviceBuffer<u32>,
    /// Per-thread partial counts, re-zeroed before every launch.
    pub result: DeviceBuffer<u64>,
    /// Table scratch of the hash bins ([`alloc_hash_scratch`]), re-zeroed
    /// before every launch.
    pub hash_scratch: Option<DeviceBuffer<u32>>,
    /// Launch-label tag (`"bin"`, `"stripe"`, `"bin stripe"`, `"shard"`;
    /// `""` for none). It names the launch in the time log, in Chrome
    /// traces and in sanitizer findings.
    pub tag: &'a str,
}

/// Launch and reduce the counting kernels of `bins`. Width-1 bins run the
/// merge [`CountKernel`] over `arrays` (SoA, AoS or Gathered); wider bins
/// run the [`WarpCentricKernel`] — chunk scan, or the shared-memory hash
/// for hash bins — over the Gathered endpoints. Every launch re-zeroes the
/// result array and the hash scratch and is reduced on its own. The hash
/// kernel builds its tables before it probes them, so the scratch zeroing
/// changes no count or modeled number; it makes every launch start from
/// the same arena image whatever an earlier count left in the tables, so
/// a repeated count replays from the device's launch memo from its first
/// repeat on. Returns the partial count and the slowest launch (`None`
/// when nothing launched).
pub(crate) fn dispatch_bins(
    dev: &mut Device,
    arrays: KernelArrays,
    bins: Bins<'_>,
    stripe: Stripe,
    ctx: &DispatchCtx<'_>,
) -> Result<(u64, Option<KernelStats>), CoreError> {
    let whole;
    let (bins, launch_empty) = match bins {
        Bins::Whole(m) => {
            whole = Bin {
                start: 0,
                len: m,
                width: 1,
                hash: false,
            };
            (std::slice::from_ref(&whole), true)
        }
        Bins::Plan(bins) => (bins, false),
    };
    let label = |kernel: &str| match ctx.tag {
        "" => kernel.to_string(),
        tag => format!("{kernel}({tag})"),
    };
    let mut triangles = 0u64;
    let mut slowest: Option<KernelStats> = None;
    for bin in bins {
        let (offset, count) = stripe.range(bin);
        if count == 0 && !launch_empty {
            continue;
        }
        dev.poke_zeroes(&ctx.result);
        if let Some(scratch) = &ctx.hash_scratch {
            dev.poke_zeroes(scratch);
        }
        let stats = if bin.width == 1 {
            let kernel = CountKernel {
                arrays,
                node: ctx.node,
                result: ctx.result,
                offset,
                count,
                variant: ctx.opts.kernel,
                use_texture_cache: ctx.opts.use_texture_cache,
            };
            let label = label("CountTriangles");
            dev.with_phase("count-kernel", |d| d.launch(&label, ctx.lc, &kernel))?
        } else {
            let KernelArrays::Gathered { eu, ev, adj } = arrays else {
                unreachable!("warp-centric bins read bin-ordered gathered endpoints")
            };
            let (strategy, scratch, shared_slots, name) = if bin.hash {
                let slots = hash_shared_slots(dev.config(), ctx.lc.threads_per_block, bin.width);
                let hash = IntersectStrategy::Hash;
                (hash, ctx.hash_scratch, slots, "CountTrianglesWarpHash")
            } else {
                (IntersectStrategy::ChunkScan, None, 0, "CountTrianglesWarp")
            };
            let kernel = WarpCentricKernel {
                adj,
                edge_u: eu,
                edge_v: ev,
                node: ctx.node,
                result: ctx.result,
                offset,
                count,
                virtual_warp: bin.width,
                use_texture_cache: ctx.opts.use_texture_cache,
                strategy,
                scratch,
                shared_slots,
            };
            let label = label(name);
            dev.with_phase("count-kernel", |d| d.launch(&label, ctx.lc, &kernel))?
        };
        triangles += dev.with_phase("reduce", |d| reduce_sum_u64(d, &ctx.result));
        if slowest.as_ref().is_none_or(|s| stats.time_s > s.time_s) {
            slowest = Some(stats);
        }
    }
    Ok((triangles, slowest))
}

/// Allocate the global table scratch a plan's hash bins probe (one
/// `HASH_TABLE_SLOTS` window per virtual warp, sized for the widest
/// demand); `None` when no occupied bin hashes. Allocated once per
/// session so repeated counts see identical addresses.
pub(crate) fn alloc_hash_scratch(
    dev: &mut Device,
    plan: Option<&BinPlan>,
    total_threads: usize,
) -> Result<Option<DeviceBuffer<u32>>, CoreError> {
    let len = plan.and_then(|p| {
        p.occupied()
            .filter(|b| b.hash)
            .map(|b| hash_scratch_len(total_threads, b.width))
            .max()
    });
    Ok(len.map(|len| dev.alloc::<u32>(len)).transpose()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_per_edge_never_plans() {
        assert!(bin_specs(KernelSchedule::ThreadPerEdge, &[1, 2, 900]).is_none());
    }

    #[test]
    fn low_mean_work_tunes_to_no_plan() {
        // Regular low degrees (Watts–Strogatz regime): mean below the gate.
        let work: Vec<u32> = (0..1000).map(|i| 7 + (i % 3)).collect();
        assert!(auto_bin_specs(&work).is_none());
        assert!(auto_bin_specs(&[]).is_none());
        // Tiny degrees never profit, whatever the skew.
        assert!(auto_bin_specs(&[1, 1, 1, 32]).is_none());
    }

    #[test]
    fn heavy_tail_tunes_to_line_plus_wide_bin() {
        // A heavy tail (> 1% of edges at work ≥ TAIL_WORK) gets its own
        // wider chunk-scan bin.
        let mut work: Vec<u32> = vec![20; 5_000];
        work.extend([2000u32; 100]);
        let specs = auto_bin_specs(&work).expect("skewed graph must plan");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].width, LINE_WIDTH);
        assert_eq!(specs[0].max_work, TAIL_WORK);
        assert_eq!(specs[1].width, 32);
        assert_eq!(specs[1].max_work, u32::MAX);
    }

    #[test]
    fn mid_work_without_tail_tunes_to_single_line_width_bin() {
        // Mean above the gate but no meaningful tail: one chunk-scan bin
        // at the line width serves everything.
        let mut work: Vec<u32> = vec![25; 10_000];
        work.extend([300u32; 10]); // tail < TAIL_MIN_FRACTION
        let specs = auto_bin_specs(&work).expect("mean above the gate");
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].width, LINE_WIDTH);
        assert_eq!(specs[0].max_work, u32::MAX);
    }

    #[test]
    fn tuner_is_deterministic() {
        let mut work: Vec<u32> = (0..5000).map(|i| (i * 2654435761u64 % 97) as u32).collect();
        work.extend([900u32; 20]);
        assert_eq!(auto_bin_specs(&work), auto_bin_specs(&work));
        assert_eq!(auto_bin_specs_hash(&work), auto_bin_specs_hash(&work));
    }

    #[test]
    fn hash_tuner_gives_the_heavy_tail_a_hash_bin() {
        let mut work: Vec<u32> = vec![20; 5_000];
        work.extend([2000u32; 100]);
        let specs = auto_bin_specs_hash(&work).expect("skewed graph must plan");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].max_work, HASH_MIN_WORK);
        assert_eq!(specs[0].width, LINE_WIDTH);
        assert!(!specs[0].hash);
        assert_eq!(specs[1].max_work, u32::MAX);
        assert_eq!(specs[1].width, 32);
        assert!(specs[1].hash);
    }

    #[test]
    fn hash_tuner_degrades_gracefully() {
        // Mean above the gate but nothing at HASH_MIN_WORK: the plan is
        // exactly the plain balanced one (never worse than `balanced`).
        let work: Vec<u32> = vec![25; 10_000];
        assert_eq!(auto_bin_specs_hash(&work), auto_bin_specs(&work));
        assert!(auto_bin_specs_hash(&work).iter().flatten().all(|s| !s.hash));
        // Uniform low-degree still tunes to no plan at all.
        let low: Vec<u32> = (0..1000).map(|i| 7 + (i % 3)).collect();
        assert!(auto_bin_specs_hash(&low).is_none());
        assert!(auto_bin_specs_hash(&[]).is_none());
    }

    #[test]
    fn schedule_tokens_round_trip() {
        for s in [
            KernelSchedule::Balanced,
            KernelSchedule::BalancedHash,
            KernelSchedule::BalancedFixed {
                threshold: 16,
                width: 8,
            },
            KernelSchedule::BalancedFixed {
                threshold: 0,
                width: 32,
            },
        ] {
            let suffix = s.token_suffix();
            let clause = suffix.strip_prefix('/').unwrap();
            assert_eq!(KernelSchedule::parse_clause(clause), Some(s), "{suffix}");
        }
        assert_eq!(KernelSchedule::ThreadPerEdge.token_suffix(), "");
        for bad in [
            "balanced:",
            "balanced:8",
            "balanced:8x3",
            "balanced:x8",
            "balanced+",
            "balanced+hash:8",
            "hash",
            "split:2",
        ] {
            assert_eq!(KernelSchedule::parse_clause(bad), None, "{bad:?}");
        }
        // Width 1 is legal in the fixed form: an all-light (sorted) plan.
        assert_eq!(
            KernelSchedule::parse_clause("balanced:9x1"),
            Some(KernelSchedule::BalancedFixed {
                threshold: 9,
                width: 1
            })
        );
    }

    #[test]
    fn stripes_tile_every_bin_in_device_order() {
        let bin = Bin {
            start: 5,
            len: 7,
            width: 8,
            hash: false,
        };
        for of in 1..=9 {
            let mut next = bin.start;
            for index in 0..of {
                let (offset, count) = Stripe { index, of }.range(&bin);
                assert_eq!(offset, next, "stripe {index} of {of}");
                next += count;
            }
            assert_eq!(next, bin.start + bin.len, "{of} stripes cover the bin");
        }
        assert_eq!(Stripe::WHOLE.range(&bin), (5, 7));
    }

    #[test]
    fn edge_work_takes_the_min_out_degree() {
        // CSR: v0 -> [1,2,3], v1 -> [2], v2 -> [], v3 -> []
        let node = vec![0u32, 3, 4, 4, 4];
        let owner = vec![0u32, 0, 0, 1];
        let nbr = vec![1u32, 2, 3, 2];
        assert_eq!(edge_work(&owner, &nbr, &node), vec![1, 0, 0, 0]);
    }
}
