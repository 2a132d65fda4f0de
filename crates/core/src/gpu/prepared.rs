//! The preprocess-once / count-many split of the paper's pipeline.
//!
//! The paper's measured window is dominated by the host-to-device copy and
//! the eight preprocessing steps (§III-B); the counting kernel itself is
//! often the minority of the wall time (preprocessing fraction 0.08–0.76,
//! §III-E). A serving deployment therefore wants to pay the copy and the
//! preprocessing **once** per graph and run the counting kernel per
//! request. [`PreparedGraph`] is that split: [`PreparedGraph::prepare`]
//! runs context bring-up plus steps 1–8 and keeps the sorted, compacted
//! SoA arrays resident on the device; [`PreparedGraph::count`] runs only
//! the kernel phases (`count-kernel` + `reduce`) and can be called any
//! number of times.
//!
//! The one-shot pipeline (a [`crate::CountRequest`] on a single device) is
//! itself implemented as `prepare` + one `count` + [`PreparedGraph::release`],
//! so the two paths execute literally the same device operations — the
//! equivalence tests hold them to byte-identical counts and kernel-span
//! counters.

use tc_graph::EdgeArray;
use tc_simt::profiler::{relative_spans, Counters, ProfileReport, RelSpan};
use tc_simt::{Device, DeviceBuffer, KernelStats, LaunchConfig, LaunchTally};

use crate::count::GpuOptions;
use crate::error::{CoreError, ErrorContext};
use crate::gpu::count_kernel::KernelArrays;
use crate::gpu::preprocess::{free_preprocessed, preprocess_auto, Preprocessed};
use crate::gpu::schedule::{
    alloc_hash_scratch, build_plan, dispatch_bins, free_plan, BinPlan, Bins, DispatchCtx, Stripe,
};
use crate::gpu::EdgeLayout;

/// A fresh device brought up for a measured session under `opts` — the
/// one bring-up of every device a GPU topology runs on (a single device,
/// the multi-GPU replicas, the cluster shards): create the context, reset
/// the stopwatch (§IV), and switch the sanitizer and the verifier to what
/// `opts` asks for. Installed before the first copy, the checkers cover
/// the whole measured session — preprocessing, scheduling, counting,
/// release.
pub(crate) fn bring_up(opts: &GpuOptions) -> Device {
    let mut dev = Device::new(opts.device.clone());
    dev.preinit_context();
    dev.reset_clock();
    dev.set_sanitizer_mode(opts.sanitizer);
    dev.set_verifier(opts.verify);
    dev
}

/// The device arrays a session counts over.
#[derive(Debug)]
pub(crate) struct Arrays {
    /// CSR offsets and the adjacency the intersections scan.
    pub node: DeviceBuffer<u32>,
    pub nbr: DeviceBuffer<u32>,
    /// What an unplanned count launches over (`None` on a session that
    /// always counts under its plan).
    pub arcs: Option<KernelArrays>,
    /// Arcs counted.
    pub m: usize,
    /// Balanced-scheduler bin plan (`None` under the default schedule, or
    /// when the auto-tuner found the graph uniform).
    pub plan: Option<BinPlan>,
    /// A replica's or a shard's uploads that its plan does not own, freed
    /// on release.
    pub held: Vec<DeviceBuffer<u32>>,
}

/// A graph preprocessed onto a device, ready to serve counts — or, built
/// from host arrays by `PreparedGraph::upload`, a multi-GPU replica or
/// a cluster shard.
#[derive(Debug)]
pub struct PreparedGraph {
    dev: Device,
    /// Preprocessing's output (`None` on a replica or a shard).
    pre: Option<Preprocessed>,
    arrays: Arrays,
    opts: GpuOptions,
    lc: LaunchConfig,
    result: DeviceBuffer<u64>,
    /// Global scratch backing the hash bins' per-virtual-warp table
    /// windows (`None` unless the plan has a hash bin). Allocated once at
    /// prepare so repeated counts see identical addresses.
    hash_scratch: Option<DeviceBuffer<u32>>,
    digest: u64,
    prepare_s: f64,
    /// The prepare window's phase spans on a clock-base-free nanosecond
    /// timeline (preprocess steps + scheduling), for request tracing.
    prepare_trace: Vec<RelSpan>,
    counts_served: u64,
}

/// One count served from a prepared session — a [`PreparedGraph`] or a
/// [`crate::PreparedCluster`]: the kernel phases only.
#[derive(Clone, Debug)]
pub struct PreparedCount {
    pub triangles: u64,
    /// Modeled device seconds of this count (kernel + reduction, plus the
    /// merge messages on a cluster): the slowest device's window, since
    /// devices run in parallel.
    pub count_s: f64,
    /// Per-device modeled seconds, flat device order (one entry on a
    /// single device).
    pub per_shard_s: Vec<f64>,
    /// The slowest counting launch across devices and bins.
    pub kernel: KernelStats,
    /// Per-count profile: exactly the spans and counter deltas charged by
    /// this count (merged across devices), for per-job attribution in the
    /// engine.
    pub profile: ProfileReport,
    /// The same spans on a clock-base-free nanosecond timeline (relative
    /// to the count's first op, flat device order), byte-identical no
    /// matter how many counts the session served before — the engine's
    /// unified request traces embed these under the request's `count`
    /// stage.
    pub trace: Vec<RelSpan>,
}

/// Where a device's logs stood when a count began.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CountMark {
    spans: usize,
    log: usize,
    counters: Counters,
}

impl CountMark {
    pub(crate) fn of(dev: &Device) -> CountMark {
        CountMark {
            spans: dev.spans().len(),
            log: dev.time_log().len(),
            counters: *dev.counters(),
        }
    }

    /// The count's window on `dev` since the mark: its modeled seconds,
    /// its profile, and its spans on a relative timeline. The seconds sum
    /// the window's op durations rather than taking an elapsed-clock
    /// delta: each duration is schedule-independent, but the clock base is
    /// not (the subtraction rounds differently as the session clock
    /// grows), and the engine promises bit-identical `count_s` no matter
    /// how many counts the session served before.
    pub(crate) fn window(self, dev: &Device) -> (f64, ProfileReport, Vec<RelSpan>) {
        let count_s: f64 = dev.time_log()[self.log..].iter().map(|op| op.seconds).sum();
        let profile = ProfileReport {
            device: dev.config().name.to_string(),
            peak_bandwidth_gbs: dev.config().dram_bandwidth_gbs,
            devices: 1,
            total_s: count_s,
            totals: dev.counters().delta(&self.counters),
            spans: dev.spans()[self.spans..].to_vec(),
        };
        let trace = relative_spans(dev.spans(), dev.time_log(), self.spans, self.log);
        (count_s, profile, trace)
    }
}

impl PreparedGraph {
    /// Run the preprocessing phase on a fresh device (context bring-up
    /// included, like the one-shot pipeline).
    pub fn prepare(g: &EdgeArray, opts: &GpuOptions) -> Result<PreparedGraph, CoreError> {
        let mut dev = bring_up(opts);

        // Launch geometry is fixed up front so preprocessing can reserve
        // room for the result array in its capacity plan.
        let lc = opts.launch_config(dev.config());
        let total_threads = lc.active_threads(dev.config().warp_size);
        // Failures carry the device and the phase they happened in.
        let name = dev.config().name;
        let at = |phase| move |e: CoreError| e.with_context(ErrorContext::at(name, phase));

        // ---- preprocessing phase (steps 1–8, §III-B) ----
        let keep_aos = opts.layout == EdgeLayout::AoS;
        dev.push_phase("preprocess");
        let pre = preprocess_auto(
            &mut dev,
            g,
            keep_aos,
            total_threads as u64 * 8,
            opts.reorder,
        );
        dev.pop_phase();
        let pre = pre.map_err(at("preprocess"))?;

        // ---- scheduling phase: the balanced bin plan, charged once ----
        dev.push_phase("schedule");
        let plan = build_plan(&mut dev, &pre, opts.schedule);
        dev.pop_phase();
        let plan = plan.map_err(at("schedule"))?;

        // The per-thread result array lives as long as the prepared graph;
        // counts re-zero it instead of reallocating, so repeated counts
        // see identical device addresses (and therefore identical cache
        // statistics).
        let result = dev.alloc::<u64>(total_threads);
        let result = result.map_err(|e| at("prepare")(e.into()))?;
        let hash_scratch = alloc_hash_scratch(&mut dev, plan.as_ref(), total_threads);
        let hash_scratch = hash_scratch.map_err(at("prepare"))?;

        let prepare_s = dev.elapsed() + pre.host_seconds;
        // Bring-up zeroed the clock, span list, and op log, so the whole
        // prepare window starts at op 0 — marks (0, 0) cover it.
        let prepare_trace = relative_spans(dev.spans(), dev.time_log(), 0, 0);
        let arcs = match opts.layout {
            EdgeLayout::SoA => KernelArrays::SoA {
                nbr: pre.nbr,
                owner: pre.owner,
            },
            EdgeLayout::AoS => KernelArrays::AoS {
                arcs: pre.arcs_aos.expect("AoS layout retains packed arcs"),
            },
        };
        let arrays = Arrays {
            node: pre.node,
            nbr: pre.nbr,
            arcs: Some(arcs),
            m: pre.m,
            plan,
            held: Vec::new(),
        };
        Ok(PreparedGraph {
            dev,
            pre: Some(pre),
            arrays,
            opts: opts.clone(),
            lc,
            result,
            hash_scratch,
            digest: g.digest(),
            prepare_s,
            prepare_trace,
            counts_served: 0,
        })
    }

    /// Run the counting phase (§III-C): zero the result array, launch
    /// `CountTriangles`, reduce. Only kernel phases are charged; the
    /// preprocessing cost stays amortized in [`PreparedGraph::prepare_s`].
    ///
    /// Under a balanced schedule with a bin plan, one kernel runs per
    /// occupied bin — the merge kernel over the gathered light edges, the
    /// warp-centric kernel (per-bin virtual-warp width) over the heavy
    /// ones — and the partial reductions sum. [`PreparedCount::kernel`]
    /// then reports the slowest bin's launch (the representative stripe).
    pub fn count(&mut self) -> Result<PreparedCount, CoreError> {
        let mark = CountMark::of(&self.dev);
        let tag = if self.arrays.plan.is_some() {
            "bin"
        } else {
            ""
        };
        let (triangles, slowest) = self.count_stripe("count", tag, Stripe::WHOLE)?;
        let (count_s, profile, trace) = mark.window(&self.dev);
        Ok(PreparedCount {
            triangles,
            count_s,
            per_shard_s: vec![count_s],
            // An empty plan (m = 0) still answers: zero triangles, zero stats.
            kernel: slowest.unwrap_or_default(),
            profile,
            trace,
        })
    }

    /// Count `stripe` of every bin under `phase`, launch labels tagged
    /// `tag` — the count of every topology: the whole session (`count`),
    /// one device's §III-E stripe (`stripe`) or a cluster shard
    /// (`shard-count`, `shard`). Returns the partial count and the slowest
    /// launch (`None` when nothing launched).
    pub(crate) fn count_stripe(
        &mut self,
        phase: &str,
        tag: &str,
        stripe: Stripe,
    ) -> Result<(u64, Option<KernelStats>), CoreError> {
        let (arrays, bins) = match &self.arrays.plan {
            Some(plan) => {
                let arrays = KernelArrays::Gathered {
                    eu: plan.eu,
                    ev: plan.ev,
                    adj: self.arrays.nbr,
                };
                (arrays, Bins::Plan(&plan.bins))
            }
            None => {
                let arrays = self
                    .arrays
                    .arcs
                    .expect("an unplanned session keeps its arcs");
                (arrays, Bins::Whole(self.arrays.m))
            }
        };
        let ctx = DispatchCtx {
            opts: &self.opts,
            lc: self.lc,
            node: self.arrays.node,
            result: self.result,
            hash_scratch: self.hash_scratch,
            tag,
        };
        self.dev.push_phase(phase);
        let counted = dispatch_bins(&mut self.dev, arrays, bins, stripe, &ctx);
        self.dev.pop_phase();
        let name = self.dev.config().name;
        let counted = counted.map_err(|e| e.with_context(ErrorContext::at(name, phase)))?;
        self.counts_served += 1;
        Ok(counted)
    }

    /// Replicate this session onto `replicas` fresh devices for the §III-E
    /// stripes, each built by [`PreparedGraph::upload`] under `broadcast`
    /// from host copies of what this session's count reads: `nbr`, `owner`
    /// when it counts without a plan, `node`, then the plan's gathered
    /// `eu`/`ev`. This device's `broadcast` span stays empty: the arrays
    /// are already here, only read back once for the copies.
    pub(crate) fn replicate(&mut self, replicas: usize) -> Result<Vec<PreparedGraph>, CoreError> {
        let pre = self.pre.as_ref().expect("replicas copy a prepared session");
        let arrays = &self.arrays;
        self.dev.push_phase("broadcast");
        let nbr = self.dev.peek(&arrays.nbr);
        let owner = arrays.plan.is_none().then(|| self.dev.peek(&pre.owner));
        let node = self.dev.peek(&arrays.node);
        let plan = arrays.plan.as_ref();
        let plan = plan.map(|p| (self.dev.peek(&p.eu), self.dev.peek(&p.ev), &p.bins));
        self.dev.pop_phase();
        let replica = |dev: &mut Device| -> Result<Arrays, CoreError> {
            let nbr = dev.htod_copy(&nbr)?;
            let owner = owner
                .as_ref()
                .map(|owner| dev.htod_copy(owner))
                .transpose()?;
            let node = dev.htod_copy(&node)?;
            let plan = match &plan {
                Some((eu, ev, bins)) => Some(BinPlan {
                    eu: dev.htod_copy(eu)?,
                    ev: dev.htod_copy(ev)?,
                    bins: bins.to_vec(),
                }),
                None => None,
            };
            Ok(Arrays {
                node,
                nbr,
                arcs: owner.map(|owner| KernelArrays::SoA { nbr, owner }),
                m: arrays.m,
                plan,
                held: [Some(nbr), owner, Some(node)]
                    .into_iter()
                    .flatten()
                    .collect(),
            })
        };
        let name = self.opts.device.name;
        (0..replicas)
            .map(|_| {
                PreparedGraph::upload(&self.opts, self.digest, "broadcast", replica)
                    .map_err(|e| e.with_context(ErrorContext::at(name, "broadcast")))
            })
            .collect()
    }

    /// A session built from host arrays instead of by preprocessing — a
    /// §III-E replica or a cluster shard — on a fresh device brought up
    /// like a prepared one. Under `phase`, `upload` copies the arrays and
    /// builds or copies the plan; the result array and the hash scratch
    /// come last. [`PreparedGraph::prepare_s`] is the whole window.
    pub(crate) fn upload(
        opts: &GpuOptions,
        digest: u64,
        phase: &str,
        upload: impl FnOnce(&mut Device) -> Result<Arrays, CoreError>,
    ) -> Result<PreparedGraph, CoreError> {
        let mut dev = bring_up(opts);
        let lc = opts.launch_config(dev.config());
        let total_threads = lc.active_threads(dev.config().warp_size);
        dev.push_phase(phase);
        let arrays = upload(&mut dev)?;
        let result = dev.alloc::<u64>(total_threads)?;
        let hash_scratch = alloc_hash_scratch(&mut dev, arrays.plan.as_ref(), total_threads)?;
        dev.pop_phase();
        Ok(PreparedGraph {
            prepare_s: dev.elapsed(),
            prepare_trace: relative_spans(dev.spans(), dev.time_log(), 0, 0),
            dev,
            pre: None,
            arrays,
            opts: opts.clone(),
            lc,
            result,
            hash_scratch,
            digest,
            counts_served: 0,
        })
    }

    /// Free every device buffer this prepared graph holds and hand the
    /// device back for its report. The frees charge no simulated time,
    /// matching the paper's protocol where the measured window ends at the
    /// free.
    pub fn release(mut self) -> Result<Device, CoreError> {
        if let Some(plan) = self.arrays.plan.take() {
            free_plan(&mut self.dev, &plan)?;
        }
        if let Some(scratch) = self.hash_scratch.take() {
            self.dev.free(scratch)?;
        }
        self.dev.free(self.result)?;
        if let Some(pre) = &self.pre {
            free_preprocessed(&mut self.dev, pre)?;
        }
        for buf in self.arrays.held {
            self.dev.free(buf)?;
        }
        Ok(self.dev)
    }

    /// Content digest of the prepared graph (cache key material).
    #[inline]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Modeled seconds the preprocessing phase cost (charged once).
    #[inline]
    pub fn prepare_s(&self) -> f64 {
        self.prepare_s
    }

    /// The prepare window's phase spans (preprocess, schedule, and their
    /// children) on a clock-base-free nanosecond timeline. Byte-identical
    /// for the same graph and options.
    #[inline]
    pub fn prepare_trace(&self) -> &[RelSpan] {
        &self.prepare_trace
    }

    /// How many counts this prepared graph has served.
    #[inline]
    pub fn counts_served(&self) -> u64 {
        self.counts_served
    }

    /// Launches the session's device has simulated and replayed from its
    /// launch memo (see [`Device::launch_tally`]).
    #[inline]
    pub fn launch_tally(&self) -> LaunchTally {
        self.dev.launch_tally()
    }

    /// Whether preprocessing needed the §III-D6 CPU fallback.
    #[inline]
    pub fn used_cpu_fallback(&self) -> bool {
        self.pre.is_some_and(|pre| pre.used_cpu_fallback)
    }

    /// Oriented arc count (= undirected edges).
    #[inline]
    pub fn m_oriented(&self) -> usize {
        self.arrays.m
    }

    /// Vertex count (a shard's: its referenced vertices).
    #[inline]
    pub fn n(&self) -> usize {
        self.pre
            .map_or(self.arrays.node.len().saturating_sub(1), |pre| pre.n)
    }

    /// Host seconds folded into `prepare_s` when the CPU fallback ran.
    #[inline]
    pub fn host_seconds(&self) -> f64 {
        self.pre.map_or(0.0, |pre| pre.host_seconds)
    }

    /// The options this graph was prepared under.
    #[inline]
    pub fn options(&self) -> &GpuOptions {
        &self.opts
    }

    /// The balanced scheduler's bin plan, if one was built (`None` under
    /// the default schedule or when the auto-tuner found the graph uniform).
    #[inline]
    pub fn bin_plan(&self) -> Option<&BinPlan> {
        self.arrays.plan.as_ref()
    }

    /// The underlying device (for reports, traces, and memory stats).
    #[inline]
    pub fn device(&self) -> &Device {
        &self.dev
    }

    #[inline]
    pub(crate) fn device_mut(&mut self) -> &mut Device {
        &mut self.dev
    }

    /// Sanitizer findings accumulated across prepare and every count so
    /// far (`None` when the sanitizer is off).
    #[inline]
    pub fn sanitizer_report(&self) -> Option<tc_simt::SanitizerReport> {
        self.dev.sanitizer_report()
    }

    /// Static launch-verifier report accumulated across prepare and every
    /// count so far (`None` when the verifier is off).
    #[inline]
    pub fn verifier_report(&self) -> Option<tc_simt::VerifierReport> {
        self.dev.verifier_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::count_forward;
    use tc_simt::DeviceConfig;

    fn diamond() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    fn opts() -> GpuOptions {
        GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory())
    }

    #[test]
    fn repeated_counts_are_identical_and_cheap() {
        let g = diamond();
        let mut prepared = PreparedGraph::prepare(&g, &opts()).unwrap();
        assert!(prepared.prepare_s() > 0.0);
        let first = prepared.count().unwrap();
        let second = prepared.count().unwrap();
        let third = prepared.count().unwrap();
        assert_eq!(first.triangles, 2);
        assert_eq!(second.triangles, 2);
        assert_eq!(third.triangles, 2);
        // Counts are deterministic replicas: same modeled time, same
        // kernel statistics, same per-count counter totals.
        assert_eq!(first.count_s, second.count_s);
        assert_eq!(second.count_s, third.count_s);
        assert_eq!(first.kernel, second.kernel);
        assert_eq!(first.profile.totals, second.profile.totals);
        assert_eq!(prepared.counts_served(), 3);
        // And each count is cheaper than preparing again.
        assert!(first.count_s < prepared.prepare_s());
    }

    #[test]
    fn per_count_profile_covers_only_kernel_phases() {
        let g = diamond();
        let mut prepared = PreparedGraph::prepare(&g, &opts()).unwrap();
        let c = prepared.count().unwrap();
        let paths: Vec<&str> = c.profile.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"count"));
        assert!(paths.contains(&"count/count-kernel"));
        assert!(paths.contains(&"count/reduce"));
        assert!(
            !paths.iter().any(|p| p.starts_with("preprocess")),
            "prepare spans must not leak into per-count profiles: {paths:?}"
        );
        assert!((c.profile.total_s - c.count_s).abs() < 1e-15);
    }

    #[test]
    fn release_frees_every_buffer() {
        let g = diamond();
        let mut prepared = PreparedGraph::prepare(&g, &opts()).unwrap();
        let _ = prepared.count().unwrap();
        let used_before_release = prepared.device().mem_used();
        assert!(used_before_release > 0);
        let dev = prepared.release().unwrap();
        assert_eq!(dev.mem_used(), 0, "release must free all buffers");
    }

    #[test]
    fn prepared_count_matches_cpu() {
        let mut pairs = Vec::new();
        for a in 0..24u32 {
            for b in (a + 1)..24 {
                if (a * 3 + b * 7) % 5 != 0 {
                    pairs.push((a, b));
                }
            }
        }
        let g = EdgeArray::from_undirected_pairs(pairs);
        let want = count_forward(&g).unwrap();
        for layout in [EdgeLayout::SoA, EdgeLayout::AoS] {
            let mut o = opts();
            o.layout = layout;
            let mut prepared = PreparedGraph::prepare(&g, &o).unwrap();
            assert_eq!(prepared.count().unwrap().triangles, want, "{layout:?}");
        }
    }

    #[test]
    fn prepare_errors_carry_device_and_phase_context() {
        let g = diamond();
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(40);
        let o = GpuOptions::new(cfg);
        let err = PreparedGraph::prepare(&g, &o).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("GTX 980"), "{msg}");
        assert!(msg.contains("preprocess"), "{msg}");
    }
}
