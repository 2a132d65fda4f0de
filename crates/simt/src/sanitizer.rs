//! Compute-sanitizer-style analysis over the simulated memory path.
//!
//! Real CUDA triangle-counting work leans on `compute-sanitizer`
//! (memcheck / initcheck / racecheck) because the kernels share raw device
//! addresses through handles exactly like our [`crate::arena::Arena`] /
//! [`crate::kernel::MemView`] pair. This module gives the simulator the
//! same safety net:
//!
//! * **memcheck** — a shadow allocation map over the arena classifies every
//!   access (host `read_at`/`write_at`/`read_slice`/`write_slice`, kernel
//!   lane loads and stores — classified inline by each simulated SM — and
//!   every [`crate::executor::PendingWrite`] commit) as in-bounds,
//!   one-past-the-end (the guard window faithful merge kernels use),
//!   out-of-bounds, or use-after-free;
//! * **initcheck** — a per-byte init bitmap flags reads of device bytes no
//!   host copy or committed store ever wrote. Kernel stores are buffered
//!   until the launch retires, so kernel reads are checked against the
//!   *pre-launch* bitmap — the memory they actually observe;
//! * **racecheck** — the executor's per-launch access log is swept for
//!   overlapping same-launch accesses from different lanes (write-write and
//!   read-write, with no intervening kernel boundary). The log is recorded
//!   only for launches that sweep it (or that Paranoid cross-validates
//!   against their contract); a launch the static verifier proved
//!   race-free under Check keeps none;
//! * **lints** — the launch's load/store counts and kernel stats flag
//!   uncoalesced hot loops and divergence-heavy launches. Lints are
//!   advisories, not findings: the paper's own merge kernel is legitimately
//!   divergence-prone, so lints never fail a clean-suite gate.
//!
//! Findings accumulate into a deterministic [`SanitizerReport`]
//! (hand-rolled JSON, same style as [`crate::profiler::ProfileReport`]):
//! each finding carries the offending address, the implicated buffer, the
//! lane (for kernel accesses), and the kernel/phase attribution taken from
//! the profiler's span stack. With [`SanitizerMode::Off`] nothing is
//! recorded or checked — the simulator's modeled statistics are
//! byte-identical to a build without the sanitizer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

use crate::executor::{KernelStats, Observed};
use crate::profiler::{json_f64, json_string};

/// Bytes past an allocation's logical end that a read may touch without a
/// `Check`-mode finding: faithful kernels issue a benign one-past-the-end
/// load (the paper's merge loop reads `edge[++u_it]` with `u_it == u_end`
/// on its final iteration), and the arena keeps 8 guard bytes for exactly
/// that access. `Paranoid` mode reports these reads anyway.
pub const GUARD_BYTES: u64 = 8;

/// How much checking the sanitizer does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SanitizerMode {
    /// No shadow state, no checks, no recording — a true no-op.
    #[default]
    Off,
    /// memcheck + initcheck + racecheck + lints. Guard-window reads (the
    /// benign one-past-the-end pattern) are tolerated.
    Check,
    /// Everything `Check` does, plus a finding for every read that lands in
    /// an allocation's padding/guard window — strict one-past-the-end
    /// detection.
    Paranoid,
}

impl SanitizerMode {
    /// Whether any checking is active.
    #[inline]
    pub fn is_on(self) -> bool {
        self != SanitizerMode::Off
    }

    /// Canonical lowercase token (CLI flags, backend tokens, JSON).
    pub fn token(self) -> &'static str {
        match self {
            SanitizerMode::Off => "off",
            SanitizerMode::Check => "check",
            SanitizerMode::Paranoid => "paranoid",
        }
    }
}

impl fmt::Display for SanitizerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The shared access record lives in [`crate::verifier`]: the sanitizer's
/// dynamic checks and the verifier's trace-containment check consume the
/// same executor-produced stream.
pub use crate::verifier::Access;

/// The kind of a sanitizer finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// Read outside every allocation (or past an allocation's guard window).
    OobRead,
    /// Store outside the logical bytes of any live allocation.
    OobWrite,
    /// Read within a freed allocation's address range.
    UseAfterFreeRead,
    /// Store within a freed allocation's address range.
    UseAfterFreeWrite,
    /// Read of device bytes nothing ever wrote.
    UninitRead,
    /// Same-launch overlapping stores from different lanes.
    WriteWriteRace,
    /// Same-launch read overlapping a different lane's store.
    ReadWriteRace,
    /// Read in an allocation's padding/guard window (`Paranoid` only).
    GuardRead,
    /// `free` of an address that is not a live allocation.
    InvalidFree,
}

impl FindingKind {
    /// Canonical kebab-case token (JSON `kind` field).
    pub fn token(self) -> &'static str {
        match self {
            FindingKind::OobRead => "oob-read",
            FindingKind::OobWrite => "oob-write",
            FindingKind::UseAfterFreeRead => "use-after-free-read",
            FindingKind::UseAfterFreeWrite => "use-after-free-write",
            FindingKind::UninitRead => "uninit-read",
            FindingKind::WriteWriteRace => "write-write-race",
            FindingKind::ReadWriteRace => "read-write-race",
            FindingKind::GuardRead => "guard-read",
            FindingKind::InvalidFree => "invalid-free",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One sanitizer finding, fully attributed.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    pub kind: FindingKind,
    /// Offending device address.
    pub addr: u64,
    /// Access width in bytes (0 for `invalid-free`).
    pub bytes: u32,
    /// Base address of the implicated allocation, if one could be found.
    pub buffer: Option<u64>,
    /// Global thread id of the issuing lane (`None` for host-side ops).
    pub lane: Option<u32>,
    /// Operation label — the kernel's launch label, or the host op
    /// (`"htod"`, `"dtoh"`, `"free"`, …).
    pub kernel: String,
    /// Profiler span path active when the op ran (`""` outside any phase).
    pub phase: String,
}

/// The kind of an access-pattern lint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintKind {
    /// A launch whose loads coalesce poorly: line transactions per read
    /// effect far above the lockstep ideal.
    Uncoalesced,
    /// A launch where most warp steps diverged into multiple issue groups.
    DivergenceHeavy,
}

impl LintKind {
    pub fn token(self) -> &'static str {
        match self {
            LintKind::Uncoalesced => "uncoalesced",
            LintKind::DivergenceHeavy => "divergence-heavy",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One access-pattern advisory for a launch (never a gate failure).
#[derive(Clone, Debug, PartialEq)]
pub struct Lint {
    pub kind: LintKind,
    /// Launch label of the offending kernel.
    pub kernel: String,
    /// Profiler span path active at launch time.
    pub phase: String,
    /// The triggering ratio (transactions per read, or divergent fraction).
    pub ratio: f64,
    /// Sample size behind the ratio (read effects, or warp steps).
    pub samples: u64,
}

/// Deterministic aggregate of every finding and lint a device observed.
#[derive(Clone, Debug, PartialEq)]
pub struct SanitizerReport {
    pub mode: SanitizerMode,
    /// Device preset name.
    pub device: String,
    pub findings: Vec<Finding>,
    pub lints: Vec<Lint>,
}

impl SanitizerReport {
    /// No findings (lints are advisories and do not count).
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Merge per-device reports (multi-GPU striping) in device-index order.
    pub fn merged(reports: &[SanitizerReport]) -> SanitizerReport {
        let mut out = SanitizerReport {
            mode: reports
                .iter()
                .map(|r| r.mode)
                .max()
                .unwrap_or(SanitizerMode::Off),
            device: reports
                .first()
                .map(|r| r.device.clone())
                .unwrap_or_default(),
            findings: Vec::new(),
            lints: Vec::new(),
        };
        for r in reports {
            out.findings.extend(r.findings.iter().cloned());
            out.lints.extend(r.lints.iter().cloned());
        }
        out
    }

    /// Serialize to JSON (hand-rolled, no serde; deterministic key order
    /// and number formatting — same style as
    /// [`crate::profiler::ProfileReport::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 192 * self.findings.len());
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"mode\": {},\n",
            json_string(self.mode.token())
        ));
        out.push_str(&format!("  \"device\": {},\n", json_string(&self.device)));
        out.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"kind\": {},\n",
                json_string(f.kind.token())
            ));
            out.push_str(&format!("      \"addr\": {},\n", f.addr));
            out.push_str(&format!("      \"bytes\": {},\n", f.bytes));
            match f.buffer {
                Some(b) => out.push_str(&format!("      \"buffer\": {b},\n")),
                None => out.push_str("      \"buffer\": null,\n"),
            }
            match f.lane {
                Some(l) => out.push_str(&format!("      \"lane\": {l},\n")),
                None => out.push_str("      \"lane\": null,\n"),
            }
            out.push_str(&format!("      \"kernel\": {},\n", json_string(&f.kernel)));
            out.push_str(&format!("      \"phase\": {}\n", json_string(&f.phase)));
            out.push_str("    }");
            if i + 1 != self.findings.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"lints\": [\n");
        for (i, l) in self.lints.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"kind\": {},\n",
                json_string(l.kind.token())
            ));
            out.push_str(&format!("      \"kernel\": {},\n", json_string(&l.kernel)));
            out.push_str(&format!("      \"phase\": {},\n", json_string(&l.phase)));
            out.push_str(&format!("      \"ratio\": {},\n", json_f64(l.ratio)));
            out.push_str(&format!("      \"samples\": {}\n", l.samples));
            out.push_str("    }");
            if i + 1 != self.lints.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A raw (not yet attributed) violation recorded by the shadow while an
/// arena op ran. The [`crate::Device`] drains these and attaches the op
/// label and profiler phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RawViolation {
    pub(crate) kind: FindingKind,
    pub(crate) addr: u64,
    pub(crate) bytes: u32,
    pub(crate) buffer: Option<u64>,
    pub(crate) lane: Option<u32>,
}

impl RawViolation {
    pub(crate) fn into_finding(self, kernel: &str, phase: &str) -> Finding {
        Finding {
            kind: self.kind,
            addr: self.addr,
            bytes: self.bytes,
            buffer: self.buffer,
            lane: self.lane,
            kernel: kernel.to_string(),
            phase: phase.to_string(),
        }
    }
}

/// One allocation's shadow record. Freed allocations are retained (live =
/// false) so later accesses classify as use-after-free rather than plain
/// OOB; the arena never reuses an address, so records stay unambiguous.
#[derive(Clone, Copy, Debug)]
struct ShadowAlloc {
    addr: u64,
    /// Logical bytes requested (capacity accounting granularity).
    bytes: u64,
    live: bool,
}

/// Shadow memory over an [`crate::arena::Arena`]: the allocation map plus
/// the per-byte init bitmap, and a queue of raw violations produced by
/// host-side ops (kernel lane accesses are classified inside the executor
/// through a [`ShadowView`]). The queue sits behind a `RefCell` because
/// reads (`read_slice`/`read_at`) take `&Arena` — which is also why
/// `Shadow` is not `Sync` and the executor's SM threads get a view instead.
#[derive(Debug)]
pub(crate) struct Shadow {
    mode: SanitizerMode,
    allocs: BTreeMap<u64, ShadowAlloc>,
    /// One bit per arena byte: 1 = written at least once.
    init: Vec<u64>,
    pending: RefCell<Vec<RawViolation>>,
}

impl Shadow {
    pub(crate) fn new(mode: SanitizerMode) -> Self {
        Shadow {
            mode,
            allocs: BTreeMap::new(),
            init: Vec::new(),
            pending: RefCell::new(Vec::new()),
        }
    }

    #[inline]
    pub(crate) fn mode(&self) -> SanitizerMode {
        self.mode
    }

    /// A read-only view of the current allocation map and init bitmap.
    #[inline]
    pub(crate) fn view(&self) -> ShadowView<'_> {
        ShadowView {
            mode: self.mode,
            allocs: &self.allocs,
            init: &self.init,
            settled: &[],
        }
    }

    /// Base addresses, ascending, of the live allocations whose logical
    /// bytes are all initialized. A kernel launch computes this once
    /// before any lane runs and hands it to [`Shadow::launch_view`]: lanes
    /// observe the pre-launch memory, so a read inside a settled
    /// allocation can never be an uninitialized read and needs no bitmap
    /// probe.
    pub(crate) fn settled(&self) -> Vec<u64> {
        self.allocs
            .values()
            .filter(|a| a.live && all_bits_set(&self.init, a.addr, a.addr + a.bytes))
            .map(|a| a.addr)
            .collect()
    }

    /// [`Shadow::view`] for a kernel launch, with the allocations
    /// [`Shadow::settled`] found fully initialized.
    pub(crate) fn launch_view<'a>(&'a self, settled: &'a [u64]) -> ShadowView<'a> {
        ShadowView {
            settled,
            ..self.view()
        }
    }

    /// Record a fresh allocation spanning `[addr, addr + span)` with
    /// `bytes` logical bytes, marking the whole span uninitialized.
    pub(crate) fn on_alloc(&mut self, addr: u64, bytes: u64, span: u64) {
        self.ensure_bitmap(addr + span);
        set_bit_range(&mut self.init, addr, addr + span, false);
        self.allocs.insert(
            addr,
            ShadowAlloc {
                addr,
                bytes,
                live: true,
            },
        );
    }

    /// Record an allocation that predates the sanitizer being switched on:
    /// conservatively treat its contents as initialized.
    pub(crate) fn on_adopt(&mut self, addr: u64, bytes: u64, span: u64) {
        self.ensure_bitmap(addr + span);
        set_bit_range(&mut self.init, addr, addr + bytes, true);
        self.allocs.insert(
            addr,
            ShadowAlloc {
                addr,
                bytes,
                live: true,
            },
        );
    }

    pub(crate) fn on_free(&mut self, addr: u64) {
        if let Some(a) = self.allocs.get_mut(&addr) {
            a.live = false;
        }
    }

    pub(crate) fn on_invalid_free(&mut self, addr: u64) {
        self.pending.get_mut().push(RawViolation {
            kind: FindingKind::InvalidFree,
            addr,
            bytes: 0,
            buffer: None,
            lane: None,
        });
    }

    /// A host-side store of `bytes` at `addr` (htod / `write_slice` /
    /// `write_at` / poke).
    pub(crate) fn host_write(&mut self, addr: u64, bytes: u64) {
        let mut out = Vec::new();
        self.view().check_write_into(addr, bytes, None, &mut out);
        self.pending.get_mut().extend(out);
        self.mark_init(addr, bytes);
    }

    /// A host-side load of `bytes` at `addr` (dtoh / `read_slice` /
    /// `read_at` / peek).
    pub(crate) fn host_read(&self, addr: u64, bytes: u64) {
        let mut out = Vec::new();
        self.view().check_read_into(addr, bytes, None, &mut out);
        if !out.is_empty() {
            self.pending.borrow_mut().extend(out);
        }
    }

    /// Drain host-op violations recorded since the last drain.
    pub(crate) fn take_pending(&self) -> Vec<RawViolation> {
        std::mem::take(&mut *self.pending.borrow_mut())
    }

    /// Clone the queued violations without draining them.
    pub(crate) fn pending_snapshot(&self) -> Vec<RawViolation> {
        self.pending.borrow().clone()
    }

    /// Whether a store of `bytes` at `addr` lies fully within the logical
    /// bytes of a live allocation (commit admission).
    pub(crate) fn write_allowed(&self, addr: u64, bytes: u64) -> bool {
        match self.view().locate(addr) {
            Some(a) if a.live => addr + bytes <= a.addr + a.bytes,
            _ => false,
        }
    }

    /// Mark `[addr, addr + bytes)` as initialized (called on every host
    /// write and every committed kernel store).
    pub(crate) fn mark_init(&mut self, addr: u64, bytes: u64) {
        self.ensure_bitmap(addr + bytes);
        set_bit_range(&mut self.init, addr, addr + bytes, true);
    }

    /// The per-byte init bitmap (for tests comparing shadow states).
    #[cfg(test)]
    pub(crate) fn init_bits(&self) -> &[u64] {
        &self.init
    }

    fn ensure_bitmap(&mut self, end: u64) {
        let words = (end as usize).div_ceil(64);
        if self.init.len() < words {
            self.init.resize(words, 0);
        }
    }
}

/// A read-only, `Sync` view of a [`Shadow`]: the allocation map, the init
/// bitmap and the mode. It holds the one access classifier — host ops and
/// kernel lanes (through [`LaneChecker`]) both go through
/// [`ShadowView::classify`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShadowView<'a> {
    mode: SanitizerMode,
    allocs: &'a BTreeMap<u64, ShadowAlloc>,
    init: &'a [u64],
    /// Allocations known to be fully initialized (see [`Shadow::settled`];
    /// empty outside kernel launches).
    settled: &'a [u64],
}

impl<'a> ShadowView<'a> {
    /// The allocation record containing or nearest below `addr`.
    fn locate(&self, addr: u64) -> Option<&'a ShadowAlloc> {
        self.allocs.range(..=addr).next_back().map(|(_, a)| a)
    }

    fn any_uninit(&self, from: u64, to: u64) -> bool {
        !all_bits_set(self.init, from, to)
    }

    /// Classify a read of `bytes` at `addr` and append any violations.
    pub(crate) fn check_read_into(
        &self,
        addr: u64,
        bytes: u64,
        lane: Option<u32>,
        out: &mut Vec<RawViolation>,
    ) {
        self.classify(self.locate(addr), addr, bytes, false, true, lane, out);
    }

    /// Classify a store of `bytes` at `addr` and append any violations.
    pub(crate) fn check_write_into(
        &self,
        addr: u64,
        bytes: u64,
        lane: Option<u32>,
        out: &mut Vec<RawViolation>,
    ) {
        self.classify(self.locate(addr), addr, bytes, true, false, lane, out);
    }

    /// Classify an access of `bytes` at `addr`, given `found` — the record
    /// [`ShadowView::locate`] returns for `addr` — and append any
    /// violations. Stores get no guard window: every byte must be
    /// logically owned. Reads may touch the guard window (tolerated under
    /// Check, reported under Paranoid); `initcheck` additionally flags
    /// in-bounds bytes nothing ever wrote. Pass `initcheck = false` for a
    /// read of a settled allocation: it has no such bytes.
    #[allow(clippy::too_many_arguments)]
    fn classify(
        &self,
        found: Option<&ShadowAlloc>,
        addr: u64,
        bytes: u64,
        write: bool,
        initcheck: bool,
        lane: Option<u32>,
        out: &mut Vec<RawViolation>,
    ) {
        if bytes == 0 {
            return;
        }
        let end = addr + bytes;
        let mk = |kind, buffer| RawViolation {
            kind,
            addr,
            bytes: bytes as u32,
            buffer,
            lane,
        };
        let (oob, use_after_free) = if write {
            (FindingKind::OobWrite, FindingKind::UseAfterFreeWrite)
        } else {
            (FindingKind::OobRead, FindingKind::UseAfterFreeRead)
        };
        match found {
            None => out.push(mk(oob, None)),
            Some(a) if !a.live => out.push(mk(use_after_free, Some(a.addr))),
            Some(a) => {
                let logical_end = a.addr + a.bytes;
                if end <= logical_end {
                    if initcheck && self.any_uninit(addr, end) {
                        out.push(mk(FindingKind::UninitRead, Some(a.addr)));
                    }
                } else if !write && end <= logical_end + GUARD_BYTES {
                    // The benign one-past-the-end pattern: tolerated under
                    // Check (initcheck still covers the in-bounds prefix),
                    // reported under Paranoid.
                    if initcheck && addr < logical_end && self.any_uninit(addr, logical_end) {
                        out.push(mk(FindingKind::UninitRead, Some(a.addr)));
                    }
                    if self.mode >= SanitizerMode::Paranoid {
                        out.push(mk(FindingKind::GuardRead, Some(a.addr)));
                    }
                } else {
                    out.push(mk(oob, Some(a.addr)));
                }
            }
        }
    }
}

/// Classifies one SM's kernel lane accesses against the pre-launch
/// [`ShadowView`], inline as the executor steps them. A memo of the last
/// live allocation found sits in front of the map lookup: allocations are
/// disjoint and addresses are never reused within a session, so an access
/// starting inside the memo's logical bytes resolves to the memo. Guard
/// window and out-of-bounds accesses fall back to the full lookup. Reads
/// of a settled allocation skip the init bitmap probe.
#[derive(Debug)]
pub(crate) struct LaneChecker<'a> {
    view: ShadowView<'a>,
    /// The memoized allocation, and whether it is settled.
    memo: Option<(&'a ShadowAlloc, bool)>,
}

impl<'a> LaneChecker<'a> {
    pub(crate) fn new(view: ShadowView<'a>) -> Self {
        LaneChecker { view, memo: None }
    }

    /// memcheck + initcheck one lane access. Scratch
    /// (shared-memory-modeled) accesses get bounds checks only: hash
    /// kernels initialize their tables in-launch, which the pre-launch
    /// init bitmap cannot see.
    pub(crate) fn check_access(&mut self, a: &Access, out: &mut Vec<RawViolation>) {
        let (found, settled) = match self.memo {
            Some((m, settled)) if m.addr <= a.addr && a.addr < m.addr + m.bytes => {
                (Some(m), settled)
            }
            _ => match self.view.locate(a.addr) {
                Some(f) if f.live => {
                    let settled = self.view.settled.binary_search(&f.addr).is_ok();
                    self.memo = Some((f, settled));
                    (Some(f), settled)
                }
                found => (found, false),
            },
        };
        let initcheck = !a.write && !a.scratch && !settled;
        self.view.classify(
            found,
            a.addr,
            a.bytes as u64,
            a.write,
            initcheck,
            Some(a.lane),
            out,
        );
    }
}

/// Set or clear the bit range `[from, to)` of a 1-bit-per-byte bitmap.
fn set_bit_range(bits: &mut [u64], from: u64, to: u64, val: bool) {
    if from >= to {
        return;
    }
    let (fw, fb) = ((from / 64) as usize, from % 64);
    let (tw, tb) = ((to / 64) as usize, to % 64);
    debug_assert!(tw < bits.len() || (tw == bits.len() && tb == 0));
    let head = u64::MAX << fb;
    let tail = if tb == 0 { u64::MAX } else { !(u64::MAX << tb) };
    if fw == tw {
        let mask = head & tail;
        if val {
            bits[fw] |= mask;
        } else {
            bits[fw] &= !mask;
        }
        return;
    }
    if val {
        bits[fw] |= head;
        bits[fw + 1..tw].iter_mut().for_each(|w| *w = u64::MAX);
        if tb != 0 {
            bits[tw] |= tail;
        }
    } else {
        bits[fw] &= !head;
        bits[fw + 1..tw].iter_mut().for_each(|w| *w = 0);
        if tb != 0 {
            bits[tw] &= !tail;
        }
    }
}

/// Whether every bit of `[from, to)` is set. Bits beyond the bitmap's end
/// count as unset.
fn all_bits_set(bits: &[u64], from: u64, to: u64) -> bool {
    if from >= to {
        return true;
    }
    let (fw, fb) = ((from / 64) as usize, from % 64);
    let (tw, tb) = ((to / 64) as usize, to % 64);
    let needed = if tb == 0 { tw } else { tw + 1 };
    if needed > bits.len() {
        return false;
    }
    let head = u64::MAX << fb;
    let tail = if tb == 0 { u64::MAX } else { !(u64::MAX << tb) };
    if fw == tw {
        let mask = head & tail;
        return bits[fw] & mask == mask;
    }
    if bits[fw] & head != head {
        return false;
    }
    if bits[fw + 1..tw].iter().any(|&w| w != u64::MAX) {
        return false;
    }
    tb == 0 || bits[tw] & tail == tail
}

/// Largest kernel read effect width in bytes (the chunk-scan kernel's
/// `int4`-style load is 16; 64 leaves headroom). Bounds the racecheck
/// overlap window.
const MAX_ACCESS_BYTES: u64 = 64;

/// Finish one retired launch: attribute the memcheck/initcheck violations
/// the executor classified inline, racecheck the access log, and compute
/// the access-pattern lints. Returns attributed findings and lints. The
/// caller commits the buffered stores afterwards (via
/// [`crate::arena::Arena::commit_store`], which marks init and skips
/// stores the shadow rejects). `racecheck` runs the WW/RW race sweeps over
/// `observed.accesses`, which the executor records only when a sweep or a
/// containment check will read it. The static verifier clears it for
/// launches whose contract already proves race-freedom. memcheck,
/// initcheck and the lints run either way, so findings on clean launches
/// are byte-identical.
pub(crate) fn check_launch(
    shadow: ShadowView<'_>,
    observed: &Observed,
    racecheck: bool,
    stats: &KernelStats,
    label: &str,
    phase: &str,
) -> (Vec<Finding>, Vec<Lint>) {
    let mut raw = observed.violations.clone();
    let log: &[Access] = if racecheck { &observed.accesses } else { &[] };
    // Scratch (shared-memory-modeled) accesses stay out of the racecheck
    // interval lists: the kernel synchronizes its table accesses (build
    // barrier + warp-synchronous probes).
    let global = |write: bool| {
        log.iter()
            .filter(move |a| !a.scratch && a.write == write)
            .map(|a| (a.addr, a.addr + a.bytes as u64, a.lane))
    };

    // --- racecheck: write-write ---
    // Sort the store intervals and sweep maximal overlapping runs; a run
    // touched by more than one lane is one conflict (the paper's kernels
    // write only lane-private slots, so any overlap is a bug). Skipped
    // wholesale when the static verifier already proved race-freedom.
    let mut ws: Vec<(u64, u64, u32)> = global(true).collect();
    ws.sort_unstable();
    let mut i = 0;
    while i < ws.len() {
        let (run_addr, mut run_end, first_lane) = ws[i];
        let mut other_lane: Option<u32> = None;
        let mut j = i + 1;
        while j < ws.len() && ws[j].0 < run_end {
            run_end = run_end.max(ws[j].1);
            if ws[j].2 != first_lane && other_lane.is_none_or(|l| ws[j].2 < l) {
                other_lane = Some(ws[j].2);
            }
            j += 1;
        }
        if let Some(other) = other_lane {
            raw.push(RawViolation {
                kind: FindingKind::WriteWriteRace,
                addr: run_addr,
                bytes: (run_end - run_addr).min(u32::MAX as u64) as u32,
                buffer: shadow.locate(run_addr).map(|a| a.addr),
                lane: Some(first_lane.min(other)),
            });
        }
        i = j;
    }

    // --- racecheck: read-write ---
    // For each store, find reads from other lanes overlapping it. Reads
    // are bounded-width, so only a bounded window of the sorted read list
    // can overlap; one finding per store suffices. (`ws` is empty when
    // the race sweeps are skipped, so this loop no-ops then.)
    let mut rs: Vec<(u64, u64, u32)> = if ws.is_empty() {
        Vec::new()
    } else {
        global(false).collect()
    };
    rs.sort_unstable();
    for &(waddr, wend, wlane) in &ws {
        let lo = waddr.saturating_sub(MAX_ACCESS_BYTES);
        let start = rs.partition_point(|r| r.0 < lo);
        for &(raddr, rend, rlane) in &rs[start..] {
            if raddr >= wend {
                break;
            }
            if rend > waddr && rlane != wlane {
                raw.push(RawViolation {
                    kind: FindingKind::ReadWriteRace,
                    addr: waddr.max(raddr),
                    bytes: (wend.min(rend) - waddr.max(raddr)) as u32,
                    buffer: shadow.locate(waddr).map(|a| a.addr),
                    lane: Some(rlane),
                });
                break;
            }
        }
    }

    let findings = raw
        .into_iter()
        .map(|r| r.into_finding(label, phase))
        .collect();

    // --- access-pattern lints (advisories, not findings) ---
    // The coalescing lint's transaction arithmetic only describes global
    // traffic, so scratch accesses stay out of its denominators too.
    let mut lints = Vec::new();
    let read_count = observed.global_reads;
    let read_txns = stats.transactions.saturating_sub(observed.global_writes);
    if read_count >= 2048 && read_txns * 2 > read_count {
        lints.push(Lint {
            kind: LintKind::Uncoalesced,
            kernel: label.to_string(),
            phase: phase.to_string(),
            ratio: read_txns as f64 / read_count as f64,
            samples: read_count,
        });
    }
    if stats.warp_steps >= 256 && stats.divergent_steps * 10 > stats.warp_steps * 3 {
        lints.push(Lint {
            kind: LintKind::DivergenceHeavy,
            kernel: label.to_string(),
            phase: phase.to_string(),
            ratio: stats.divergent_steps as f64 / stats.warp_steps as f64,
            samples: stats.warp_steps,
        });
    }
    (findings, lints)
}

/// Seeded-bug self-test: four intentionally broken kernels — an OOB read,
/// an uninitialized read, a write-write race, and a hash-table bucket
/// probe past its shared scratch window — each of which the sanitizer must
/// detect. CI runs this (`tcount sanitize-selftest`) to prove the checks
/// are alive, the mirror image of proving the real suite clean.
pub mod selftest {
    use super::{FindingKind, SanitizerMode, SanitizerReport};
    use crate::arena::DeviceBuffer;
    use crate::config::DeviceConfig;
    use crate::device::Device;
    use crate::executor::LaunchConfig;
    use crate::kernel::{Effect, Kernel, MemView};

    /// Outcome of one seeded-bug kernel.
    #[derive(Clone, Debug)]
    pub struct SeededBug {
        /// Kernel name (`"oob-read"`, `"uninit-read"`, `"write-write-race"`).
        pub name: &'static str,
        /// The finding kind the kernel is seeded to produce.
        pub expected: FindingKind,
        /// Whether the sanitizer produced at least one finding of that kind.
        pub detected: bool,
        /// The full report of the seeded run.
        pub report: SanitizerReport,
    }

    /// Lane 0 reads 4 bytes deep inside the buffer's padding — past the
    /// logical end and past the guard window.
    #[derive(Hash)]
    struct OobReadKernel {
        data: DeviceBuffer<u32>,
    }

    impl Kernel for OobReadKernel {
        type Lane = Option<Effect>;
        fn spawn(&self, tid: usize, _total: usize) -> Option<Effect> {
            (tid == 0).then_some(Effect::Read {
                // 64 bytes past the logical end: well beyond GUARD_BYTES,
                // but still inside the arena's 256 B span padding.
                addr: self.data.addr() + self.data.byte_len() + 64,
                bytes: 4,
                cached: true,
            })
        }
        fn step(&self, lane: &mut Option<Effect>, _mem: &MemView<'_>) -> Effect {
            lane.take().unwrap_or(Effect::Done)
        }
    }

    /// Lane 0 reads element 0 of a buffer nothing ever wrote.
    #[derive(Hash)]
    struct UninitReadKernel {
        data: DeviceBuffer<u32>,
    }

    impl Kernel for UninitReadKernel {
        type Lane = Option<Effect>;
        fn spawn(&self, tid: usize, _total: usize) -> Option<Effect> {
            (tid == 0).then_some(Effect::Read {
                addr: self.data.addr(),
                bytes: 4,
                cached: true,
            })
        }
        fn step(&self, lane: &mut Option<Effect>, _mem: &MemView<'_>) -> Effect {
            lane.take().unwrap_or(Effect::Done)
        }
    }

    /// Every lane stores its tid to the same result slot — the classic
    /// missing-`atomicAdd` bug.
    #[derive(Hash)]
    struct RaceKernel {
        result: DeviceBuffer<u64>,
    }

    impl Kernel for RaceKernel {
        type Lane = Option<Effect>;
        fn spawn(&self, tid: usize, _total: usize) -> Option<Effect> {
            Some(Effect::Write {
                addr: self.result.addr(),
                bytes: 8,
                value: tid as u64,
            })
        }
        fn step(&self, lane: &mut Option<Effect>, _mem: &MemView<'_>) -> Effect {
            lane.take().unwrap_or(Effect::Done)
        }
    }

    /// Lane 0 probes a hash-table bucket one stride past the end of its
    /// scratch window — the classic `hash & mask` miscomputation. The
    /// access is a shared-memory effect, so this proves memcheck covers
    /// the scratch path even though initcheck/racecheck exempt it.
    #[derive(Hash)]
    struct HashOobProbeKernel {
        table: DeviceBuffer<u32>,
    }

    impl Kernel for HashOobProbeKernel {
        type Lane = Option<Effect>;
        fn spawn(&self, tid: usize, _total: usize) -> Option<Effect> {
            (tid == 0).then_some(Effect::SharedRead {
                addr: self.table.addr() + self.table.byte_len() + 64,
                bytes: 4,
                spilled: false,
            })
        }
        fn step(&self, lane: &mut Option<Effect>, _mem: &MemView<'_>) -> Effect {
            lane.take().unwrap_or(Effect::Done)
        }
    }

    fn seeded_device() -> Device {
        let mut dev = Device::new(DeviceConfig::nvs_5200m().with_unlimited_memory());
        dev.set_sanitizer_mode(SanitizerMode::Check);
        dev.preinit_context();
        dev.reset_clock();
        dev
    }

    fn outcome(name: &'static str, expected: FindingKind, dev: &Device) -> SeededBug {
        let report = dev
            .sanitizer_report()
            .expect("seeded device runs with the sanitizer on");
        SeededBug {
            name,
            expected,
            detected: report.findings.iter().any(|f| f.kind == expected),
            report,
        }
    }

    /// Run the four seeded-bug kernels, each on a fresh sanitized device.
    pub fn run() -> Vec<SeededBug> {
        let lc = LaunchConfig::new(1, 64);
        let mut out = Vec::with_capacity(4);

        let mut dev = seeded_device();
        let data = dev.alloc::<u32>(16).unwrap();
        dev.poke(&data, &[7u32; 16]);
        let kernel = OobReadKernel { data };
        dev.with_phase("selftest", |d| d.launch("SeededOobRead", lc, &kernel))
            .unwrap();
        out.push(outcome("oob-read", FindingKind::OobRead, &dev));

        let mut dev = seeded_device();
        let data = dev.alloc::<u32>(64).unwrap();
        let kernel = UninitReadKernel { data };
        dev.with_phase("selftest", |d| d.launch("SeededUninitRead", lc, &kernel))
            .unwrap();
        out.push(outcome("uninit-read", FindingKind::UninitRead, &dev));

        let mut dev = seeded_device();
        let result = dev.alloc::<u64>(1).unwrap();
        dev.poke(&result, &[0u64]);
        let kernel = RaceKernel { result };
        dev.with_phase("selftest", |d| d.launch("SeededRace", lc, &kernel))
            .unwrap();
        out.push(outcome(
            "write-write-race",
            FindingKind::WriteWriteRace,
            &dev,
        ));

        let mut dev = seeded_device();
        let table = dev.alloc::<u32>(256).unwrap();
        let kernel = HashOobProbeKernel { table };
        dev.with_phase("selftest", |d| d.launch("SeededHashOobProbe", lc, &kernel))
            .unwrap();
        out.push(outcome("hash-oob-probe", FindingKind::OobRead, &dev));

        out
    }

    /// Whether every seeded bug was detected.
    pub fn all_detected(bugs: &[SeededBug]) -> bool {
        !bugs.is_empty() && bugs.iter().all(|b| b.detected)
    }

    /// Deterministic JSON for the whole self-test (CI gate artifact).
    pub fn to_json(bugs: &[SeededBug]) -> String {
        let mut out = String::from("{\n  \"seeded_bugs\": [\n");
        for (i, b) in bugs.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", b.name));
            out.push_str(&format!(
                "      \"expected\": \"{}\",\n",
                b.expected.token()
            ));
            out.push_str(&format!("      \"detected\": {},\n", b.detected));
            out.push_str("      \"report\": ");
            // Indent the nested report to keep the output readable.
            let nested = b.report.to_json();
            let nested = nested.trim_end().replace('\n', "\n      ");
            out.push_str(&nested);
            out.push_str("\n    }");
            if i + 1 != bugs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  ],\n  \"all_detected\": {}\n}}\n",
            all_detected(bugs)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classify a hand-written access log the way the executor does
    /// inline, then finish the launch with a full racecheck.
    fn replay(
        sh: &Shadow,
        accesses: &[Access],
        stats: &KernelStats,
        phase: &str,
    ) -> (Vec<Finding>, Vec<Lint>) {
        let mut checker = LaneChecker::new(sh.view());
        let mut observed = Observed::default();
        for a in accesses {
            checker.check_access(a, &mut observed.violations);
        }
        observed.accesses = accesses.to_vec();
        check_launch(sh.view(), &observed, true, stats, "k", phase)
    }

    #[test]
    fn bit_range_ops_cover_word_boundaries() {
        let mut bits = vec![0u64; 4];
        set_bit_range(&mut bits, 3, 130, true);
        assert!(all_bits_set(&bits, 3, 130));
        assert!(!all_bits_set(&bits, 2, 4));
        assert!(!all_bits_set(&bits, 129, 131));
        set_bit_range(&mut bits, 64, 128, false);
        assert!(!all_bits_set(&bits, 60, 70));
        assert!(all_bits_set(&bits, 3, 64));
        assert!(all_bits_set(&bits, 128, 130));
        // Empty ranges are trivially set; ranges past the bitmap are not.
        assert!(all_bits_set(&bits, 5, 5));
        assert!(!all_bits_set(&bits, 250, 300));
    }

    #[test]
    fn shadow_classifies_reads() {
        let mut sh = Shadow::new(SanitizerMode::Check);
        sh.on_alloc(0, 64, 256); // u32[16]
        sh.on_alloc(256, 8, 256);
        sh.mark_init(0, 64);
        let mut out = Vec::new();
        // In-bounds initialized: clean.
        sh.view().check_read_into(0, 4, None, &mut out);
        assert!(out.is_empty());
        // One-past-the-end within the guard window: clean under Check.
        sh.view().check_read_into(64, 4, None, &mut out);
        assert!(out.is_empty());
        // Past the guard window: OOB.
        sh.view().check_read_into(128, 4, None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, FindingKind::OobRead);
        assert_eq!(out[0].buffer, Some(0));
        // Uninitialized second buffer.
        out.clear();
        sh.view().check_read_into(256, 8, None, &mut out);
        assert_eq!(out[0].kind, FindingKind::UninitRead);
        // Use-after-free.
        sh.on_free(0);
        out.clear();
        sh.view().check_read_into(16, 4, None, &mut out);
        assert_eq!(out[0].kind, FindingKind::UseAfterFreeRead);
    }

    #[test]
    fn paranoid_reports_guard_reads() {
        let mut sh = Shadow::new(SanitizerMode::Paranoid);
        sh.on_alloc(0, 64, 256);
        sh.mark_init(0, 64);
        let mut out = Vec::new();
        sh.view().check_read_into(64, 4, None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, FindingKind::GuardRead);
    }

    #[test]
    fn writes_get_no_guard_window() {
        let mut sh = Shadow::new(SanitizerMode::Check);
        sh.on_alloc(0, 64, 256);
        let mut out = Vec::new();
        sh.view().check_write_into(60, 4, Some(3), &mut out);
        assert!(out.is_empty());
        sh.view().check_write_into(64, 4, Some(3), &mut out);
        assert_eq!(out[0].kind, FindingKind::OobWrite);
        assert_eq!(out[0].lane, Some(3));
        assert!(sh.write_allowed(60, 4));
        assert!(!sh.write_allowed(64, 4));
    }

    /// Neither the memo nor the settled-allocation shortcut may change a
    /// verdict: a memoized launch checker must agree with a fresh,
    /// bitmap-probing classification of every access.
    #[test]
    fn the_memo_never_changes_a_classification() {
        let mut sh = Shadow::new(SanitizerMode::Paranoid);
        sh.on_alloc(0, 64, 256);
        sh.on_alloc(256, 100, 256);
        sh.on_alloc(512, 8, 256);
        sh.mark_init(0, 64);
        sh.mark_init(256, 50);
        sh.on_free(512);
        // Hop between buffers, their guard windows, their padding, a freed
        // buffer and the space past the last allocation, so the memo is
        // hit, missed and replaced.
        let addrs = [
            0, 60, 64, 68, 70, 128, 256, 300, 348, 356, 360, 0, 516, 40, 300, 900, 62, 352,
        ];
        let accesses: Vec<Access> = addrs
            .iter()
            .enumerate()
            .flat_map(|(i, &addr)| {
                [(false, false), (true, false), (false, true), (true, true)].map(
                    |(write, scratch)| Access {
                        lane: i as u32,
                        addr,
                        bytes: 4,
                        write,
                        scratch,
                        spilled: false,
                    },
                )
            })
            .collect();
        let settled = sh.settled();
        assert_eq!(settled, vec![0], "only the first buffer is fully written");
        let mut memoized = Vec::new();
        let mut checker = LaneChecker::new(sh.launch_view(&settled));
        for a in &accesses {
            checker.check_access(a, &mut memoized);
        }
        let mut fresh = Vec::new();
        for a in &accesses {
            LaneChecker::new(sh.view()).check_access(a, &mut fresh);
        }
        assert_eq!(memoized, fresh);
        for kind in [
            FindingKind::OobRead,
            FindingKind::OobWrite,
            FindingKind::UninitRead,
            FindingKind::GuardRead,
            FindingKind::UseAfterFreeRead,
            FindingKind::UseAfterFreeWrite,
        ] {
            assert!(memoized.iter().any(|v| v.kind == kind), "{kind} missing");
        }
    }

    #[test]
    fn racecheck_finds_conflicting_writes_once() {
        let mut sh = Shadow::new(SanitizerMode::Check);
        sh.on_alloc(0, 64, 256);
        sh.mark_init(0, 64);
        let accesses: Vec<Access> = (0..32)
            .map(|lane| Access {
                lane,
                addr: 8,
                bytes: 8,
                write: true,
                scratch: false,
                spilled: false,
            })
            .collect();
        let stats = KernelStats::default();
        let (findings, _) = replay(&sh, &accesses, &stats, "p");
        let races: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.kind == FindingKind::WriteWriteRace)
            .collect();
        assert_eq!(races.len(), 1, "one finding per overlapping run");
        assert_eq!(races[0].addr, 8);
        assert_eq!(races[0].lane, Some(0));
        assert_eq!(races[0].kernel, "k");
        assert_eq!(races[0].phase, "p");
    }

    #[test]
    fn racecheck_finds_read_write_conflicts_but_not_private_slots() {
        let mut sh = Shadow::new(SanitizerMode::Check);
        sh.on_alloc(0, 256, 256);
        sh.mark_init(0, 256);
        let stats = KernelStats::default();
        // Lane-private slots: no race.
        let private: Vec<Access> = (0..16)
            .flat_map(|lane| {
                [
                    Access {
                        lane,
                        addr: lane as u64 * 8,
                        bytes: 8,
                        write: true,
                        scratch: false,
                        spilled: false,
                    },
                    Access {
                        lane,
                        addr: lane as u64 * 8,
                        bytes: 8,
                        write: false,
                        scratch: false,
                        spilled: false,
                    },
                ]
            })
            .collect();
        let (findings, _) = replay(&sh, &private, &stats, "");
        assert!(findings.is_empty(), "{findings:?}");
        // Lane 1 reads what lane 0 writes: read-write race.
        let racy = vec![
            Access {
                lane: 0,
                addr: 16,
                bytes: 8,
                write: true,
                scratch: false,
                spilled: false,
            },
            Access {
                lane: 1,
                addr: 16,
                bytes: 8,
                write: false,
                scratch: false,
                spilled: false,
            },
        ];
        let (findings, _) = replay(&sh, &racy, &stats, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::ReadWriteRace);
        assert_eq!(findings[0].lane, Some(1));
    }

    #[test]
    fn scratch_accesses_skip_init_and_race_but_not_bounds() {
        let mut sh = Shadow::new(SanitizerMode::Check);
        sh.on_alloc(0, 256, 512); // scratch table, never initialized
        let stats = KernelStats::default();
        // Uninitialized probe, colliding write/read from different lanes:
        // all clean because the accesses are scratch-synchronized.
        let synced = vec![
            Access {
                lane: 0,
                addr: 16,
                bytes: 4,
                write: true,
                scratch: true,
                spilled: false,
            },
            Access {
                lane: 1,
                addr: 16,
                bytes: 12, // chain walk across the written slot
                write: false,
                scratch: true,
                spilled: false,
            },
        ];
        let (findings, _) = replay(&sh, &synced, &stats, "");
        assert!(findings.is_empty(), "{findings:?}");
        // But bounds still apply: a probe past the scratch window is OOB.
        let oob = vec![Access {
            lane: 2,
            addr: 256 + GUARD_BYTES + 64,
            bytes: 4,
            write: false,
            scratch: true,
            spilled: false,
        }];
        let (findings, _) = replay(&sh, &oob, &stats, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::OobRead);
        assert_eq!(findings[0].lane, Some(2));
    }

    #[test]
    fn report_json_is_deterministic_and_balanced() {
        let report = SanitizerReport {
            mode: SanitizerMode::Check,
            device: "GTX 980".into(),
            findings: vec![Finding {
                kind: FindingKind::OobRead,
                addr: 1234,
                bytes: 4,
                buffer: Some(1024),
                lane: Some(7),
                kernel: "CountTriangles".into(),
                phase: "count/count-kernel".into(),
            }],
            lints: vec![Lint {
                kind: LintKind::DivergenceHeavy,
                kernel: "CountTriangles".into(),
                phase: "count/count-kernel".into(),
                ratio: 0.5,
                samples: 1000,
            }],
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"kind\": \"oob-read\""));
        assert!(json.contains("\"lane\": 7"));
        assert!(json.contains("\"finding_count\": 1"));
        assert!(json.contains("\"kind\": \"divergence-heavy\""));
    }

    #[test]
    fn merged_reports_concatenate_in_order() {
        let mk = |addr| SanitizerReport {
            mode: SanitizerMode::Check,
            device: "C2050".into(),
            findings: vec![Finding {
                kind: FindingKind::UninitRead,
                addr,
                bytes: 4,
                buffer: None,
                lane: None,
                kernel: "k".into(),
                phase: String::new(),
            }],
            lints: Vec::new(),
        };
        let m = SanitizerReport::merged(&[mk(1), mk(2)]);
        assert_eq!(m.findings.len(), 2);
        assert_eq!(m.findings[0].addr, 1);
        assert_eq!(m.findings[1].addr, 2);
        assert!(!m.is_clean());
        assert!(
            SanitizerReport::merged(&[]).is_clean(),
            "empty merge is clean"
        );
    }

    #[test]
    fn selftest_detects_all_four_seeded_bugs() {
        let bugs = selftest::run();
        assert_eq!(bugs.len(), 4);
        for b in &bugs {
            assert!(b.detected, "{} must be detected", b.name);
        }
        assert!(selftest::all_detected(&bugs));
        // Deterministic, byte-identical JSON across runs.
        let a = selftest::to_json(&bugs);
        let b = selftest::to_json(&selftest::run());
        assert_eq!(a, b);
        assert!(a.contains("\"all_detected\": true"));
    }
}
