//! The simulated device: arena + clock + launch front-end.
//!
//! A [`Device`] owns its memory arena and a simulated wall clock. Every
//! operation — context creation, host↔device copies, primitive calls,
//! kernel launches — advances the clock by the modeled cost and appends to
//! a time log, which is how the end-to-end pipeline reproduces the paper's
//! measurement protocol ("we started each measurement just before the edge
//! array is copied … finished right after the final result was copied back
//! and the GPU memory was freed", §IV).

use crate::arena::{Arena, DeviceBuffer, DeviceScalar};
use crate::config::DeviceConfig;
use crate::error::SimtError;
use crate::executor::{simulate, simulate_observed, KernelStats, LaunchConfig, PendingWrite};
use crate::kernel::Kernel;
use crate::memo::{digest128, kernel_key, LaunchMemo, LaunchTally};
use crate::profiler::{Counters, OpenSpan, ProfileReport, Span};
use crate::sanitizer::{check_launch, Finding, Lint, SanitizerMode, SanitizerReport};
use crate::verifier::{self, Interval, VerifierFinding, VerifierReport};

/// One entry of the device time log.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedOp {
    pub label: String,
    /// Device-clock start of the op, seconds (real timestamp, so traces
    /// and spans nest correctly).
    pub start_s: f64,
    pub seconds: f64,
}

impl TimedOp {
    /// Convenience constructor for tests and synthetic logs: an op that
    /// starts at `start_s` and lasts `seconds`.
    pub fn new(label: impl Into<String>, start_s: f64, seconds: f64) -> Self {
        TimedOp {
            label: label.into(),
            start_s,
            seconds,
        }
    }

    #[inline]
    pub fn end_s(&self) -> f64 {
        self.start_s + self.seconds
    }
}

/// A simulated GPU.
///
/// ```
/// use tc_simt::{Device, DeviceConfig};
/// let mut dev = Device::new(DeviceConfig::gtx_980());
/// dev.preinit_context();           // the paper's cudaFree(NULL) trick
/// dev.reset_clock();
/// let buf = dev.htod_copy(&[1u32, 2, 3]).unwrap();
/// assert_eq!(dev.dtoh(&buf), vec![1, 2, 3]);
/// assert!(dev.elapsed() > 0.0);    // PCIe transfers cost simulated time
/// ```
#[derive(Debug)]
pub struct Device {
    cfg: DeviceConfig,
    arena: Arena,
    now_s: f64,
    context_ready: bool,
    log: Vec<TimedOp>,
    counters: Counters,
    span_stack: Vec<OpenSpan>,
    spans: Vec<Span>,
    findings: Vec<Finding>,
    lints: Vec<Lint>,
    /// Static launch verifier on/off (host-side only — never charges
    /// modeled time).
    verifier: bool,
    vfindings: Vec<VerifierFinding>,
    launches_checked: u64,
    launches_proven: u64,
    racechecks_skipped: u64,
    passes_checked: u64,
    /// Sanitizer-off launches this device can replay (host-side only).
    memo: LaunchMemo,
    tally: LaunchTally,
}

impl Device {
    pub fn new(cfg: DeviceConfig) -> Self {
        Device {
            arena: Arena::new(cfg.memory_capacity),
            cfg,
            now_s: 0.0,
            context_ready: false,
            log: Vec::new(),
            counters: Counters::default(),
            span_stack: Vec::new(),
            spans: Vec::new(),
            findings: Vec::new(),
            lints: Vec::new(),
            verifier: false,
            vfindings: Vec::new(),
            launches_checked: 0,
            launches_proven: 0,
            racechecks_skipped: 0,
            passes_checked: 0,
            memo: LaunchMemo::default(),
            tally: LaunchTally::default(),
        }
    }

    /// Switch the sanitizer on or off for this device's next session.
    /// Installing a shadow adopts live allocations (contents treated as
    /// initialized); any previously accumulated findings and lints are
    /// discarded either way.
    pub fn set_sanitizer_mode(&mut self, mode: SanitizerMode) {
        self.arena.set_sanitizer(mode);
        self.findings.clear();
        self.lints.clear();
    }

    /// The sanitizer mode currently active on this device.
    #[inline]
    pub fn sanitizer_mode(&self) -> SanitizerMode {
        self.arena.sanitizer_mode()
    }

    /// Switch the static launch verifier on or off. Any accumulated
    /// verifier findings and counters are discarded either way. The
    /// verifier is purely host-side: it never charges modeled time.
    pub fn set_verifier(&mut self, on: bool) {
        self.verifier = on;
        self.vfindings.clear();
        self.launches_checked = 0;
        self.launches_proven = 0;
        self.racechecks_skipped = 0;
        self.passes_checked = 0;
    }

    /// Snapshot the static verifier's report so far. `None` when the
    /// verifier is off.
    pub fn verifier_report(&self) -> Option<VerifierReport> {
        if !self.verifier {
            return None;
        }
        Some(VerifierReport {
            device: self.cfg.name.to_string(),
            launches_checked: self.launches_checked,
            launches_proven: self.launches_proven,
            racechecks_skipped: self.racechecks_skipped,
            passes_checked: self.passes_checked,
            findings: self.vfindings.clone(),
        })
    }

    /// Statically check an analytic host pass (the primitives family peeks,
    /// computes on the host, and pokes results back) against the live
    /// allocation map. Declared read intervals tolerate the arena's guard
    /// bytes; write intervals do not. Infallible: findings are recorded in
    /// the verifier report rather than failing the pass, because analytic
    /// passes have already modeled their cost when this runs. No-op when
    /// the verifier is off.
    pub fn verify_pass(&mut self, label: &str, reads: &[Interval], writes: &[Interval]) {
        if !self.verifier {
            return;
        }
        self.passes_checked += 1;
        let phase = self.current_phase();
        self.vfindings.extend(verifier::check_host_pass(
            &self.arena,
            label,
            &phase,
            reads,
            writes,
        ));
    }

    /// Snapshot the sanitizer's findings and lints so far. `None` when the
    /// sanitizer is off. Violations recorded by untimed host reads
    /// ([`Device::peek`]) that no timed op has attributed yet are included
    /// under the op label `"host"`.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        let mode = self.arena.sanitizer_mode();
        if !mode.is_on() {
            return None;
        }
        let mut findings = self.findings.clone();
        let phase = self.current_phase();
        findings.extend(
            self.arena
                .pending_violations()
                .into_iter()
                .map(|r| r.into_finding("host", &phase)),
        );
        Some(SanitizerReport {
            mode,
            device: self.cfg.name.to_string(),
            findings,
            lints: self.lints.clone(),
        })
    }

    fn current_phase(&self) -> String {
        self.span_stack
            .last()
            .map(|s| s.path.clone())
            .unwrap_or_default()
    }

    /// Attribute raw violations queued by host-side arena ops to the op
    /// label that produced them and the currently open phase.
    fn drain_violations(&mut self, label: &str) {
        if self.arena.sanitizer_mode().is_on() {
            let raws = self.arena.take_violations();
            if !raws.is_empty() {
                let phase = self.current_phase();
                self.findings
                    .extend(raws.into_iter().map(|r| r.into_finding(label, &phase)));
            }
        }
    }

    #[inline]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Simulated seconds elapsed since construction or the last
    /// [`Device::reset_clock`].
    #[inline]
    pub fn elapsed(&self) -> f64 {
        self.now_s
    }

    /// Zero the clock, the time log, the counters, and the recorded spans
    /// (the paper resets its stopwatch after pre-initializing the context).
    pub fn reset_clock(&mut self) {
        self.now_s = 0.0;
        self.log.clear();
        self.counters = Counters::default();
        self.span_stack.clear();
        self.spans.clear();
    }

    /// How many launches this device has simulated and how many it
    /// replayed from its launch memo, over its whole lifetime.
    #[inline]
    pub fn launch_tally(&self) -> LaunchTally {
        self.tally
    }

    /// The operations charged so far.
    pub fn time_log(&self) -> &[TimedOp] {
        &self.log
    }

    /// Whole-run hardware-counter totals since the last reset.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Closed profiling spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a named profiling phase. Phases nest: a push while another
    /// phase is open records a child span whose path is
    /// `"parent/child"`. Every charged op between push and pop — copies,
    /// primitive passes, kernel launches — is attributed to the phase via
    /// counter snapshot-and-delta.
    pub fn push_phase(&mut self, name: &str) {
        let path = match self.span_stack.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        self.span_stack.push(OpenSpan {
            path,
            depth: self.span_stack.len(),
            start_s: self.now_s,
            first_op: self.log.len(),
            snapshot: self.counters,
        });
    }

    /// Close the innermost open phase, recording its [`Span`].
    ///
    /// # Panics
    /// Panics if no phase is open (push/pop mismatch is a programming
    /// error in the pipeline, not a runtime condition).
    pub fn pop_phase(&mut self) {
        let open = self.span_stack.pop().expect("pop_phase with no open phase");
        self.spans.push(Span {
            path: open.path,
            depth: open.depth,
            start_s: open.start_s,
            end_s: self.now_s,
            first_op: open.first_op,
            end_op: self.log.len(),
            counters: self.counters.delta(&open.snapshot),
        });
    }

    /// Run `f` inside a named phase (push/pop bracketed even on early
    /// return of a value).
    pub fn with_phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_phase(name);
        let out = f(self);
        self.pop_phase();
        out
    }

    /// Snapshot the run so far as a [`ProfileReport`].
    pub fn profile(&self) -> ProfileReport {
        ProfileReport {
            device: self.cfg.name.to_string(),
            peak_bandwidth_gbs: self.cfg.dram_bandwidth_gbs,
            devices: 1,
            total_s: self.now_s,
            totals: self.counters,
            spans: self.spans.clone(),
        }
    }

    /// Pre-create the CUDA context (the paper's `cudaFree(NULL)` trick):
    /// pays the ~100 ms once, so the first real allocation doesn't.
    pub fn preinit_context(&mut self) {
        if !self.context_ready {
            let cost = self.cfg.context_init_ms * 1e-3;
            self.advance("context-init", cost);
            self.context_ready = true;
        }
    }

    fn ensure_context(&mut self) {
        if !self.context_ready {
            let cost = self.cfg.context_init_ms * 1e-3;
            self.advance("context-init (lazy, first malloc)", cost);
            self.context_ready = true;
        }
    }

    pub(crate) fn advance(&mut self, label: &str, seconds: f64) {
        self.drain_violations(label);
        self.log.push(TimedOp {
            label: label.to_string(),
            start_s: self.now_s,
            seconds,
        });
        self.now_s += seconds;
    }

    /// Charge an analytic streaming pass and attribute its counters
    /// (used by the Thrust-style primitives).
    pub(crate) fn charge_stream_pass(
        &mut self,
        label: &str,
        seconds: f64,
        read_bytes: u64,
        write_bytes: u64,
    ) {
        self.counters
            .absorb_stream_pass(seconds, read_bytes, write_bytes, self.cfg.line_bytes);
        self.advance(label, seconds);
    }

    /// Allocate a typed device buffer (`cudaMalloc`).
    pub fn alloc<T: DeviceScalar>(&mut self, len: usize) -> Result<DeviceBuffer<T>, SimtError> {
        self.ensure_context();
        let addr = self.arena.alloc((len * T::BYTES) as u64)?;
        Ok(DeviceBuffer::new(addr, len))
    }

    /// Free a buffer (`cudaFree`).
    pub fn free<T: DeviceScalar>(&mut self, buf: DeviceBuffer<T>) -> Result<(), SimtError> {
        let out = self.arena.free(buf.addr());
        self.drain_violations("free");
        out
    }

    /// Allocate and fill from host data, charging the PCIe transfer.
    pub fn htod_copy<T: DeviceScalar>(&mut self, src: &[T]) -> Result<DeviceBuffer<T>, SimtError> {
        let buf = self.alloc::<T>(src.len())?;
        self.htod_write(&buf, src)?;
        Ok(buf)
    }

    /// Overwrite an existing buffer from host data, charging PCIe time.
    pub fn htod_write<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        src: &[T],
    ) -> Result<(), SimtError> {
        if src.len() != buf.len() {
            return Err(SimtError::LengthMismatch {
                expected: buf.len(),
                got: src.len(),
            });
        }
        self.arena.write_slice(buf, src);
        let secs = buf.byte_len() as f64 / (self.cfg.pcie_bandwidth_gbs * 1e9);
        self.counters.htod_bytes += buf.byte_len();
        self.advance("htod", secs);
        Ok(())
    }

    /// Copy a buffer back to the host, charging PCIe time.
    pub fn dtoh<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        let out = self.arena.read_slice(buf);
        let secs = buf.byte_len() as f64 / (self.cfg.pcie_bandwidth_gbs * 1e9);
        self.counters.dtoh_bytes += buf.byte_len();
        self.advance("dtoh", secs);
        out
    }

    /// Host-side debug read without timing (not part of the measured
    /// protocol; tests use it to inspect device state).
    pub fn peek<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.arena.read_slice(buf)
    }

    /// Host-side debug write without timing.
    pub fn poke<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, src: &[T]) {
        self.arena.write_slice(buf, src);
        self.drain_violations("poke");
    }

    /// Host-side zero fill of a whole buffer without timing: a
    /// [`Device::poke`] of zeroes.
    pub fn poke_zeroes<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) {
        self.arena.zero_slice(buf);
        self.drain_violations("poke");
    }

    /// Launch a kernel under cycle simulation; commits its stores and
    /// advances the clock by the simulated kernel time. With the sanitizer
    /// on, the launch's lane accesses are checked (memcheck and initcheck
    /// inline as the SMs step them, then racecheck and access-pattern
    /// lints) before the stores commit; stores the shadow rejects are
    /// skipped so the run survives to report them.
    ///
    /// With the sanitizer off, a launch this device already simulated —
    /// same kernel value, same launch config, byte-identical arena — is
    /// replayed from the device's launch memo: the recorded stats and the
    /// stores that changed a byte go through the same commit and clock
    /// tail, so the device ends in the state the simulation would have
    /// left. The static verifier still checks every launch first. The memo
    /// holds at most 8 launches, one per kernel and launch config, oldest
    /// dropped first, and lives as long as the device.
    pub fn launch<K: Kernel>(
        &mut self,
        label: &str,
        lc: LaunchConfig,
        kernel: &K,
    ) -> Result<KernelStats, SimtError> {
        self.ensure_context();
        // Pre-launch static verification: prove the declared footprint
        // in-bounds and race-free against the live allocation map before
        // any lane runs. Host-side only — charges no modeled time.
        let mut contract = None;
        let mut proven_race_free = false;
        if self.verifier {
            let total = lc.active_threads(self.cfg.warp_size);
            contract = kernel.contract(lc, total);
            let phase = self.current_phase();
            let check = verifier::check_launch_static(
                contract.as_ref(),
                lc,
                &self.cfg,
                &self.arena,
                label,
                &phase,
            );
            self.launches_checked += 1;
            if !check.findings.is_empty() {
                let n = check.findings.len();
                self.vfindings.extend(check.findings);
                return Err(SimtError::VerifierRejected { findings: n });
            }
            proven_race_free = check.race_free;
            if proven_race_free {
                self.launches_proven += 1;
            }
        }
        let mode = self.arena.sanitizer_mode();
        if mode.is_on() {
            // A statically proven launch needs no dynamic race sweep in
            // Check mode; Paranoid still sweeps and cross-validates the
            // contract against the observed trace. The access log is kept
            // only when one of those two reads it — memcheck and initcheck
            // run inline in the executor either way.
            let racecheck = !(proven_race_free && mode == SanitizerMode::Check);
            if !racecheck {
                self.racechecks_skipped += 1;
            }
            // `contract` is only set when the verifier is on.
            let containment = contract
                .as_ref()
                .filter(|_| mode >= SanitizerMode::Paranoid);
            let shadow = self.arena.shadow().expect("sanitizer is on");
            let settled = shadow.settled();
            let view = shadow.launch_view(&settled);
            let (stats, writes, observed) = simulate_observed(
                &self.cfg,
                &self.arena,
                lc,
                kernel,
                Some(view),
                racecheck || containment.is_some(),
            )?;
            let phase = self.current_phase();
            let (findings, lints) = check_launch(view, &observed, racecheck, &stats, label, &phase);
            self.findings.extend(findings);
            self.lints.extend(lints);
            if let Some(c) = containment {
                let total = lc.active_threads(self.cfg.warp_size);
                self.vfindings.extend(verifier::check_trace_containment(
                    c,
                    &observed.accesses,
                    lc,
                    total,
                    label,
                    &phase,
                ));
            }
            commit(&mut self.arena, &writes);
            self.tally.simulated += 1;
            return Ok(self.charge_kernel(label, stats));
        }
        let key = kernel_key(kernel, lc);
        let image = digest128(self.arena.bytes());
        if let Some((stats, writes)) = self.memo.get(&key, image) {
            let stats = stats.clone();
            commit(&mut self.arena, writes);
            self.tally.replayed += 1;
            return Ok(self.charge_kernel(label, stats));
        }
        let (stats, mut writes) = simulate(&self.cfg, &self.arena, lc, kernel)?;
        // Record only the stores that change a byte: a replay starts from
        // the same image, where the others are no-ops too.
        writes.retain(|w| commit_if_changed(&mut self.arena, w));
        writes.shrink_to_fit();
        self.memo.insert(key, image, stats.clone(), writes);
        self.tally.simulated += 1;
        Ok(self.charge_kernel(label, stats))
    }

    /// The tail every launch shares, simulated or replayed: fold the stats
    /// into the counters and advance the clock by the kernel time.
    fn charge_kernel(&mut self, label: &str, stats: KernelStats) -> KernelStats {
        self.counters.absorb_kernel(&stats);
        self.advance(label, stats.time_s);
        stats
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> u64 {
        self.arena.used()
    }

    /// Peak allocation high-water mark.
    pub fn mem_peak(&self) -> u64 {
        self.arena.peak()
    }

    pub fn mem_capacity(&self) -> u64 {
        self.arena.capacity()
    }

    /// Would `bytes` more fit right now? (§III-D6 capacity planning.)
    pub fn fits(&self, bytes: u64) -> bool {
        self.arena.fits(bytes)
    }
}

/// Commit a launch's surviving stores in issue order.
fn commit(arena: &mut Arena, writes: &[PendingWrite]) {
    for w in writes {
        arena.commit_store(w.addr, w.bytes, w.value);
    }
}

/// Commit one store unless it would leave its bytes as they are; returns
/// whether it changed them. Sanitizer-off only: a skipped store would
/// otherwise miss its initcheck marking.
fn commit_if_changed(arena: &mut Arena, w: &PendingWrite) -> bool {
    let at = w.addr as usize;
    let len = w.bytes as usize;
    let changed = arena.bytes()[at..at + len] != w.value.to_le_bytes()[..len];
    if changed {
        arena.commit_store(w.addr, w.bytes, w.value);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Effect, MemView};

    #[test]
    fn copies_roundtrip_and_charge_time() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        dev.preinit_context();
        dev.reset_clock();
        let data: Vec<u32> = (0..1000).collect();
        let buf = dev.htod_copy(&data).unwrap();
        let t_after_up = dev.elapsed();
        assert!(t_after_up > 0.0);
        let back = dev.dtoh(&buf);
        assert_eq!(back, data);
        assert!(dev.elapsed() > t_after_up);
        assert_eq!(dev.time_log().len(), 2);
    }

    #[test]
    fn lazy_context_init_charges_100ms_once() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        let _ = dev.alloc::<u32>(16).unwrap();
        assert!(dev.elapsed() >= 0.1, "first malloc must pay context init");
        let t = dev.elapsed();
        let _ = dev.alloc::<u32>(16).unwrap();
        assert_eq!(dev.elapsed(), t, "second malloc is free of context cost");
    }

    #[test]
    fn preinit_moves_cost_out_of_the_measured_window() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        dev.preinit_context();
        dev.reset_clock();
        let _ = dev.alloc::<u32>(16).unwrap();
        assert!(dev.elapsed() < 1e-3);
    }

    #[test]
    fn capacity_is_enforced() {
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(1024);
        let mut dev = Device::new(cfg);
        assert!(dev.alloc::<u32>(200).is_ok());
        assert!(matches!(
            dev.alloc::<u32>(200),
            Err(SimtError::OutOfMemory { .. })
        ));
        assert!(dev.fits(100));
        assert!(!dev.fits(1000));
    }

    #[test]
    fn free_returns_budget() {
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(1024);
        let mut dev = Device::new(cfg);
        let b = dev.alloc::<u32>(200).unwrap();
        dev.free(b).unwrap();
        assert!(dev.alloc::<u32>(200).is_ok());
        assert_eq!(dev.mem_peak(), 800);
    }

    #[test]
    fn mismatched_write_is_rejected() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        let buf = dev.alloc::<u32>(4).unwrap();
        assert!(matches!(
            dev.htod_write(&buf, &[1, 2, 3]),
            Err(SimtError::LengthMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    /// Lane `tid < n` loads `input[tid]` and stores `input[tid] + add` to
    /// `output[tid]`.
    #[derive(Clone, Copy, Hash)]
    struct AddKernel {
        input: DeviceBuffer<u32>,
        output: DeviceBuffer<u32>,
        n: usize,
        add: u32,
    }

    struct AddLane {
        tid: usize,
        loaded: Option<u32>,
        done: bool,
    }

    impl Kernel for AddKernel {
        type Lane = AddLane;
        fn spawn(&self, tid: usize, _total: usize) -> AddLane {
            AddLane {
                tid,
                loaded: None,
                done: false,
            }
        }
        fn step(&self, lane: &mut AddLane, mem: &MemView<'_>) -> Effect {
            if lane.done || lane.tid >= self.n {
                return Effect::Done;
            }
            match lane.loaded {
                None => {
                    let addr = self.input.addr_of(lane.tid);
                    lane.loaded = Some(mem.read_u32(addr));
                    Effect::Read {
                        addr,
                        bytes: 4,
                        cached: true,
                    }
                }
                Some(v) => {
                    lane.done = true;
                    Effect::Write {
                        addr: self.output.addr_of(lane.tid),
                        bytes: 4,
                        value: u64::from(v + self.add),
                    }
                }
            }
        }
    }

    const N: usize = 256;
    const LC: LaunchConfig = LaunchConfig {
        blocks: 2,
        threads_per_block: 128,
        warp_split: 1,
    };

    /// A warm device holding `input = 0..N`, a zeroed `output` and an
    /// `other` buffer no kernel touches.
    fn add_device(sanitizer: SanitizerMode) -> (Device, AddKernel, DeviceBuffer<u32>) {
        let mut dev = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        dev.set_sanitizer_mode(sanitizer);
        dev.preinit_context();
        dev.reset_clock();
        let input = dev.htod_copy(&(0..N as u32).collect::<Vec<_>>()).unwrap();
        let output = dev.htod_copy(&[0u32; N]).unwrap();
        let other = dev.htod_copy(&[7u32; 16]).unwrap();
        let kernel = AddKernel {
            input,
            output,
            n: N,
            add: 1,
        };
        (dev, kernel, other)
    }

    /// Zero the output, as a count re-zeroes its result array, then launch.
    fn zero_and_launch(dev: &mut Device, kernel: &AddKernel, lc: LaunchConfig) -> KernelStats {
        dev.poke(&kernel.output, &[0u32; N]);
        dev.launch("add", lc, kernel).unwrap()
    }

    #[test]
    fn a_repeated_launch_replays_exactly_what_simulation_would_leave() {
        let (mut replaying, kernel, _) = add_device(SanitizerMode::Off);
        let (mut simulating, _, _) = add_device(SanitizerMode::Off);
        let mut stats = Vec::new();
        for _ in 0..2 {
            stats.push(zero_and_launch(&mut replaying, &kernel, LC));
            let simulated = zero_and_launch(&mut simulating, &kernel, LC);
            simulating.memo.clear();
            assert_eq!(stats.last(), Some(&simulated));
        }
        assert_eq!(stats[0], stats[1]);
        let tally = |simulated, replayed| LaunchTally {
            simulated,
            replayed,
        };
        assert_eq!(replaying.launch_tally(), tally(1, 1));
        assert_eq!(simulating.launch_tally(), tally(2, 0));
        // The replayed store log was committed: the output is not the
        // zeroes the poke left.
        let expected: Vec<u32> = (1..=N as u32).collect();
        assert_eq!(replaying.peek(&kernel.output), expected);
        assert_eq!(replaying.arena.bytes(), simulating.arena.bytes());
        assert_eq!(
            replaying.elapsed().to_bits(),
            simulating.elapsed().to_bits()
        );
        assert_eq!(replaying.time_log(), simulating.time_log());
        assert_eq!(replaying.counters(), simulating.counters());
    }

    #[test]
    fn any_changed_input_of_a_launch_forces_a_simulation() {
        let (mut dev, kernel, other) = add_device(SanitizerMode::Off);
        let simulated = |dev: &Device| dev.launch_tally().simulated;
        zero_and_launch(&mut dev, &kernel, LC);
        zero_and_launch(&mut dev, &kernel, LC);
        assert_eq!((simulated(&dev), dev.launch_tally().replayed), (1, 1));

        // One byte the kernel never reads, outside any footprint it could
        // declare.
        let mut bytes = dev.peek(&other);
        bytes[3] ^= 0x100;
        dev.poke(&other, &bytes);
        zero_and_launch(&mut dev, &kernel, LC);
        assert_eq!(simulated(&dev), 2, "a changed arena byte re-simulates");

        // One launch-config field.
        let split = LaunchConfig {
            warp_split: 2,
            blocks: 4,
            ..LC
        };
        zero_and_launch(&mut dev, &kernel, split);
        assert_eq!(simulated(&dev), 3, "a changed launch config re-simulates");
        let bigger = LaunchConfig { blocks: 3, ..LC };
        zero_and_launch(&mut dev, &kernel, bigger);
        assert_eq!(simulated(&dev), 4);

        // One kernel field.
        let plus_two = AddKernel { add: 2, ..kernel };
        zero_and_launch(&mut dev, &plus_two, LC);
        assert_eq!(simulated(&dev), 5, "a changed kernel field re-simulates");
        let expected: Vec<u32> = (2..N as u32 + 2).collect();
        assert_eq!(dev.peek(&kernel.output), expected);

        // Every variant above is now recorded, so repeating them replays.
        let replayed = dev.launch_tally().replayed;
        zero_and_launch(&mut dev, &kernel, LC);
        zero_and_launch(&mut dev, &kernel, split);
        zero_and_launch(&mut dev, &plus_two, LC);
        assert_eq!(dev.launch_tally().replayed, replayed + 3);
        assert_eq!(simulated(&dev), 5);
    }

    #[test]
    fn a_sanitized_device_never_replays_and_repeats_its_findings() {
        let (mut dev, kernel, _) = add_device(SanitizerMode::Check);
        // Reads of a buffer nothing wrote: an initcheck finding per lane.
        let blank = dev.alloc::<u32>(N).unwrap();
        let kernel = AddKernel {
            input: blank,
            ..kernel
        };
        let mut per_launch = Vec::new();
        for _ in 0..3 {
            let before = dev.sanitizer_report().unwrap().findings.len();
            zero_and_launch(&mut dev, &kernel, LC);
            let findings = dev.sanitizer_report().unwrap().findings;
            per_launch.push(findings[before..].to_vec());
        }
        assert!(!per_launch[0].is_empty(), "the seeded bug is reported");
        assert_eq!(per_launch[1], per_launch[0]);
        assert_eq!(per_launch[2], per_launch[0]);
        assert_eq!(
            dev.launch_tally(),
            LaunchTally {
                simulated: 3,
                replayed: 0
            }
        );
        assert_eq!(dev.memo.len(), 0, "sanitized launches are never recorded");
    }

    #[test]
    fn rejected_launches_leave_the_memo_alone() {
        // The kernel declares no access contract, so the verifier, which
        // runs before any memo lookup, rejects every launch.
        let (mut dev, kernel, _) = add_device(SanitizerMode::Off);
        dev.set_verifier(true);
        for _ in 0..2 {
            dev.poke(&kernel.output, &[0u32; N]);
            assert!(dev.launch("add", LC, &kernel).is_err());
        }
        assert_eq!(dev.launch_tally(), LaunchTally::default());
        assert_eq!(dev.memo.len(), 0);
        assert_eq!(dev.verifier_report().unwrap().launches_checked, 2);
    }

    #[test]
    fn peek_and_poke_do_not_advance_clock() {
        let mut dev = Device::new(DeviceConfig::gtx_980());
        dev.preinit_context();
        dev.reset_clock();
        let buf = dev.alloc::<u32>(4).unwrap();
        dev.poke(&buf, &[9, 8, 7, 6]);
        assert_eq!(dev.peek(&buf), vec![9, 8, 7, 6]);
        assert_eq!(dev.elapsed(), 0.0);
    }
}
