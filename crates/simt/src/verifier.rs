//! Static kernel-launch verification: per-kernel access contracts proven
//! against the live allocation map *before* a single lane steps.
//!
//! PR 5's compute-sanitizer ([`crate::sanitizer`]) finds memory and race
//! bugs dynamically — only on the inputs a run happens to exercise, and
//! only by paying a per-access shadow cost. The paper's kernels, though,
//! have access patterns that are simple affine functions of `(tid, total)`
//! and the bound buffers — exactly the class a GPUVerify-style launch-time
//! checker can verify exhaustively. This module gives the simulator that
//! static side:
//!
//! * every shipped kernel declares an [`AccessContract`] — symbolic
//!   read/write footprints as affine ranges over the launch parameters and
//!   bound buffers, a per-lane write-set disjointness claim, and a
//!   shared-memory budget;
//! * a pre-launch checker (`check_launch_static`) validates the contract
//!   against the live [`crate::arena::Arena`] allocation map and the
//!   [`DeviceConfig`]: footprints in-bounds, write sets pairwise disjoint
//!   across lanes (⇒ static WW/RW race-freedom), shared budget within the
//!   device limit, grid config sane. Bad launches are *rejected* — the
//!   launch returns [`crate::SimtError::VerifierRejected`] and the finding
//!   lands in a deterministic [`VerifierReport`];
//! * contracts are cross-validated against reality: under
//!   [`crate::SanitizerMode::Paranoid`] the sanitizer's lane-access trace
//!   is checked for containment in the declared footprint
//!   (`check_trace_containment`), so a dishonest contract is itself a
//!   hard finding; under `Check`, launches with statically proven
//!   race-freedom skip the dynamic racecheck sweep entirely — sound
//!   precisely because Paranoid containment (and the [`selftest`] seeded
//!   lies) police contract honesty.
//!
//! Verification is host-side: it charges no modeled cycles, so modeled
//! perf is byte-identical with the verifier on or off.

use std::collections::BTreeMap;
use std::fmt;

use crate::arena::Arena;
use crate::config::DeviceConfig;
use crate::executor::LaunchConfig;
use crate::profiler::json_string;
use crate::sanitizer::GUARD_BYTES;

/// One kernel memory access (read or write), with the issuing lane's
/// global thread id. With the sanitizer on, the executor classifies each
/// one inline and records them per launch when a racecheck sweep or a
/// containment check will read the log; the stream is deterministic
/// (SM-index merge order). This is the *shared* access record: the
/// sanitizer's dynamic checks and the verifier's containment check both
/// consume it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Global thread id of the issuing lane.
    pub lane: u32,
    pub addr: u64,
    pub bytes: u32,
    pub write: bool,
    /// Shared-memory-modeled scratch access (hash-table build/probe,
    /// including spilled tables). Memcheck bounds apply, but initcheck and
    /// racecheck do not: the kernel initializes its table in-launch behind
    /// a modeled barrier between the build and probe phases, which the
    /// pre-launch shadow and the orderless access log cannot represent.
    pub scratch: bool,
    /// Scratch access whose table overflowed the shared budget and lives
    /// in global scratch instead. Spilled accesses do not count against
    /// the contract's declared shared-memory budget.
    pub spilled: bool,
}

/// A half-open byte range `[start, end)` of device memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    /// The interval of `len` bytes starting at `start`.
    #[inline]
    pub fn bytes(start: u64, len: u64) -> Self {
        Interval {
            start,
            end: start + len,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    #[inline]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the two (non-empty) intervals share any byte.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// Whether an access of `bytes` at `addr` lies fully inside.
    #[inline]
    pub fn contains(&self, addr: u64, bytes: u64) -> bool {
        addr >= self.start && addr + bytes <= self.end
    }
}

/// A symbolic per-lane-group footprint: group `g` (lanes
/// `[g·lanes_per_group, (g+1)·lanes_per_group)`) owns the window
/// `[base + g·stride, base + g·stride + span)`. With `lanes_per_group = 1`
/// and `stride = span` this is the classic "lane `tid` writes slot `tid`"
/// pattern; the hash kernel's per-virtual-warp scratch tables use wider
/// groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AffineFootprint {
    /// Window base of group 0.
    pub base: u64,
    /// Byte distance between consecutive group windows.
    pub stride: u64,
    /// Bytes each group may touch within its window.
    pub span: u64,
    /// Number of groups (0 ⇒ the footprint is empty).
    pub groups: u64,
    /// Lanes sharing one window (≥ 1).
    pub lanes_per_group: u32,
    /// The kernel's claim that distinct groups never touch each other's
    /// windows. The checker only *accepts* the claim when it is
    /// structurally provable (`stride ≥ span`); Paranoid containment then
    /// polices that lanes actually stay inside their own window.
    pub disjoint: bool,
}

impl AffineFootprint {
    /// The "lane `tid` owns slot `tid`" footprint: `lanes` windows of
    /// `span` bytes, one lane each, disjoint by construction.
    pub fn per_lane(base: u64, span: u64, lanes: u64) -> Self {
        AffineFootprint {
            base,
            stride: span,
            span,
            groups: lanes,
            lanes_per_group: 1,
            disjoint: true,
        }
    }

    /// Group `g`'s window.
    #[inline]
    pub fn window(&self, group: u64) -> Interval {
        Interval::bytes(self.base + group * self.stride, self.span)
    }

    /// The group owning `lane`.
    #[inline]
    pub fn group_of(&self, lane: u32) -> u64 {
        lane as u64 / self.lanes_per_group.max(1) as u64
    }

    /// The convex hull of every window: the whole footprint's byte range.
    pub fn hull(&self) -> Interval {
        if self.groups == 0 || self.span == 0 {
            return Interval::default();
        }
        Interval {
            start: self.base,
            end: self.base + (self.groups - 1) * self.stride + self.span,
        }
    }

    /// Whether group-disjointness holds structurally: windows spaced at
    /// least a span apart can never overlap.
    #[inline]
    pub fn proven_disjoint(&self) -> bool {
        self.stride >= self.span
    }

    /// Whether an access of `bytes` at `addr` by `lane` lies inside the
    /// lane's *own* group window.
    pub fn contains_lane(&self, lane: u32, addr: u64, bytes: u64) -> bool {
        let g = self.group_of(lane);
        g < self.groups && self.window(g).contains(addr, bytes)
    }
}

/// A kernel's declared memory behaviour, as a function of the launch
/// (`total` active threads, block geometry) and its bound buffers.
///
/// *Reads* are plain intervals — data-dependent gather loads (adjacency
/// walks) are declared as the whole bound buffer, which is still a proof
/// obligation (the buffer must be live and the interval in-bounds).
/// *Writes* and *scratch* are per-lane-group affine footprints so the
/// checker can prove write-set disjointness, which is what static WW/RW
/// race-freedom rests on. Scratch footprints are exempt from the
/// race-freedom argument (the kernel synchronizes its tables in-launch,
/// mirroring the sanitizer's racecheck exemption).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccessContract {
    pub reads: Vec<Interval>,
    pub writes: Vec<AffineFootprint>,
    pub scratch: Vec<AffineFootprint>,
    /// On-chip shared memory the kernel claims one block needs, in bytes.
    /// Checked against [`DeviceConfig::shared_mem_per_block_bytes`]
    /// statically, and against the observed non-spilled scratch extent
    /// under Paranoid containment.
    pub shared_bytes_per_block: u64,
}

/// The kind of a verifier finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifierFindingKind {
    /// The launch geometry is degenerate (zero blocks, non-multiple block
    /// size, warp split that does not divide the warp, …).
    GridInvalid,
    /// The verifier is on but the kernel declares no contract.
    MissingContract,
    /// A declared read interval leaves the logical bytes (+ guard window)
    /// of every live allocation.
    OobRead,
    /// A declared write/scratch footprint hull leaves the logical bytes of
    /// every live allocation.
    OobWrite,
    /// A footprint claims group-disjointness the checker cannot prove
    /// structurally (`stride < span`).
    UnprovenDisjointness,
    /// The declared shared budget exceeds the device's per-block limit.
    SharedBudgetExceeded,
    /// Paranoid containment: a traced read left the declared footprint.
    UndeclaredRead,
    /// Paranoid containment: a traced write left the declared footprint
    /// (or left the issuing lane's own window — a disjointness lie).
    UndeclaredWrite,
    /// Paranoid containment: observed non-spilled scratch use exceeds the
    /// declared per-block shared budget.
    SharedBudgetUnderstated,
}

impl VerifierFindingKind {
    /// Canonical kebab-case token (JSON `kind` field).
    pub fn token(self) -> &'static str {
        match self {
            VerifierFindingKind::GridInvalid => "grid-invalid",
            VerifierFindingKind::MissingContract => "missing-contract",
            VerifierFindingKind::OobRead => "oob-read",
            VerifierFindingKind::OobWrite => "oob-write",
            VerifierFindingKind::UnprovenDisjointness => "unproven-disjointness",
            VerifierFindingKind::SharedBudgetExceeded => "shared-budget-exceeded",
            VerifierFindingKind::UndeclaredRead => "undeclared-read",
            VerifierFindingKind::UndeclaredWrite => "undeclared-write",
            VerifierFindingKind::SharedBudgetUnderstated => "shared-budget-understated",
        }
    }
}

impl fmt::Display for VerifierFindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One verifier finding, fully attributed.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifierFinding {
    pub kind: VerifierFindingKind,
    /// Offending device address (footprint start, or access address).
    pub addr: u64,
    /// Byte extent of the offending range (0 when not meaningful).
    pub bytes: u64,
    /// Issuing lane for containment findings (`None` for static ones).
    pub lane: Option<u32>,
    /// Launch label (or host-pass label) being verified.
    pub kernel: String,
    /// Profiler span path active at check time (`""` outside any phase).
    pub phase: String,
    /// Human-readable specifics (which bound was violated, by how much).
    pub detail: String,
}

/// Deterministic aggregate of everything the verifier observed on one
/// device: proof statistics plus every finding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifierReport {
    /// Device preset name.
    pub device: String,
    /// Kernel launches statically checked.
    pub launches_checked: u64,
    /// Launches whose contract proved static WW/RW race-freedom.
    pub launches_proven: u64,
    /// Dynamic racecheck sweeps skipped because race-freedom was already
    /// proven (Check-mode sanitizer only).
    pub racechecks_skipped: u64,
    /// Analytic host-side primitive passes interval-checked.
    pub passes_checked: u64,
    pub findings: Vec<VerifierFinding>,
}

impl VerifierReport {
    /// No findings.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Merge per-device reports (multi-GPU striping / cluster shards) in
    /// device-index order.
    pub fn merged(reports: &[VerifierReport]) -> VerifierReport {
        let mut out = VerifierReport {
            device: reports
                .first()
                .map(|r| r.device.clone())
                .unwrap_or_default(),
            ..VerifierReport::default()
        };
        for r in reports {
            out.launches_checked += r.launches_checked;
            out.launches_proven += r.launches_proven;
            out.racechecks_skipped += r.racechecks_skipped;
            out.passes_checked += r.passes_checked;
            out.findings.extend(r.findings.iter().cloned());
        }
        out
    }

    /// Serialize to JSON (hand-rolled, no serde; deterministic key order —
    /// same style as [`crate::SanitizerReport::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 192 * self.findings.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"device\": {},\n", json_string(&self.device)));
        out.push_str(&format!(
            "  \"launches_checked\": {},\n",
            self.launches_checked
        ));
        out.push_str(&format!(
            "  \"launches_proven\": {},\n",
            self.launches_proven
        ));
        out.push_str(&format!(
            "  \"racechecks_skipped\": {},\n",
            self.racechecks_skipped
        ));
        out.push_str(&format!("  \"passes_checked\": {},\n", self.passes_checked));
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
            match f.lane {
                Some(l) => out.push_str(&format!("      \"lane\": {l},\n")),
                None => out.push_str("      \"lane\": null,\n"),
            }
            out.push_str(&format!("      \"kernel\": {},\n", json_string(&f.kernel)));
            out.push_str(&format!("      \"phase\": {},\n", json_string(&f.phase)));
            out.push_str(&format!("      \"detail\": {}\n", json_string(&f.detail)));
            out.push_str("    }");
            if i + 1 != self.findings.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Result of the pre-launch static check.
#[derive(Clone, Debug)]
pub(crate) struct StaticCheck {
    pub(crate) findings: Vec<VerifierFinding>,
    /// Whether the contract proves static WW/RW race-freedom: every write
    /// footprint claims *and* structurally proves group-disjointness, the
    /// write hulls are pairwise disjoint, and no (guard-extended) read
    /// interval overlaps a write hull.
    pub(crate) race_free: bool,
}

fn finding(
    kind: VerifierFindingKind,
    addr: u64,
    bytes: u64,
    label: &str,
    phase: &str,
    detail: String,
) -> VerifierFinding {
    VerifierFinding {
        kind,
        addr,
        bytes,
        lane: None,
        kernel: label.to_string(),
        phase: phase.to_string(),
        detail,
    }
}

/// Check one declared interval against the live allocation map. `guard`
/// is the read tolerance past an allocation's logical end (the benign
/// one-past-the-end pattern); writes pass 0.
fn check_interval_bounds(
    arena: &Arena,
    iv: Interval,
    guard: u64,
    kind: VerifierFindingKind,
    label: &str,
    phase: &str,
    what: &str,
) -> Option<VerifierFinding> {
    if iv.is_empty() {
        return None;
    }
    match arena.live_alloc_below(iv.start) {
        Some((base, bytes))
            if iv.start < base + bytes + guard && iv.end <= base + bytes + guard =>
        {
            None
        }
        Some((base, bytes)) => Some(finding(
            kind,
            iv.start,
            iv.len(),
            label,
            phase,
            format!(
                "{what} [{}, {}) leaves allocation [{base}, {})",
                iv.start,
                iv.end,
                base + bytes
            ),
        )),
        None => Some(finding(
            kind,
            iv.start,
            iv.len(),
            label,
            phase,
            format!(
                "{what} [{}, {}) is inside no live allocation",
                iv.start, iv.end
            ),
        )),
    }
}

/// Validate a launch's contract against the live allocation map and the
/// device limits — the pre-launch static proof. Never touches the modeled
/// clock. A `None` contract with the verifier on is itself a finding.
pub(crate) fn check_launch_static(
    contract: Option<&AccessContract>,
    lc: LaunchConfig,
    cfg: &DeviceConfig,
    arena: &Arena,
    label: &str,
    phase: &str,
) -> StaticCheck {
    let mut findings = Vec::new();
    if let Err(e) = lc.validate(cfg) {
        findings.push(finding(
            VerifierFindingKind::GridInvalid,
            0,
            0,
            label,
            phase,
            e.to_string(),
        ));
        return StaticCheck {
            findings,
            race_free: false,
        };
    }
    let Some(c) = contract else {
        findings.push(finding(
            VerifierFindingKind::MissingContract,
            0,
            0,
            label,
            phase,
            "kernel declares no access contract".to_string(),
        ));
        return StaticCheck {
            findings,
            race_free: false,
        };
    };
    for iv in &c.reads {
        findings.extend(check_interval_bounds(
            arena,
            *iv,
            GUARD_BYTES,
            VerifierFindingKind::OobRead,
            label,
            phase,
            "read footprint",
        ));
    }
    for (fps, what) in [
        (&c.writes, "write footprint"),
        (&c.scratch, "scratch footprint"),
    ] {
        for fp in fps.iter() {
            findings.extend(check_interval_bounds(
                arena,
                fp.hull(),
                0,
                VerifierFindingKind::OobWrite,
                label,
                phase,
                what,
            ));
            if fp.disjoint && !fp.hull().is_empty() && !fp.proven_disjoint() {
                findings.push(finding(
                    VerifierFindingKind::UnprovenDisjointness,
                    fp.base,
                    fp.span,
                    label,
                    phase,
                    format!(
                        "{what} claims disjoint groups but stride {} < span {}",
                        fp.stride, fp.span
                    ),
                ));
            }
        }
    }
    if c.shared_bytes_per_block > cfg.shared_mem_per_block_bytes as u64 {
        findings.push(finding(
            VerifierFindingKind::SharedBudgetExceeded,
            0,
            c.shared_bytes_per_block,
            label,
            phase,
            format!(
                "declared shared budget {} B exceeds the device's {} B per block",
                c.shared_bytes_per_block, cfg.shared_mem_per_block_bytes
            ),
        ));
    }
    let race_free = findings.is_empty() && proves_race_freedom(c);
    StaticCheck {
        findings,
        race_free,
    }
}

/// Whether a (bounds-clean) contract proves static WW/RW race-freedom.
fn proves_race_freedom(c: &AccessContract) -> bool {
    let mut hulls: Vec<Interval> = Vec::new();
    for fp in &c.writes {
        let hull = fp.hull();
        if hull.is_empty() {
            continue;
        }
        // Every non-empty write footprint must claim disjoint lanes *and*
        // prove the claim structurally.
        if !(fp.disjoint && fp.proven_disjoint()) {
            return false;
        }
        hulls.push(hull);
    }
    // Distinct write footprints must not overlap each other (two proven-
    // disjoint footprints over the same buffer still race across lanes).
    for (i, a) in hulls.iter().enumerate() {
        for b in &hulls[i + 1..] {
            if a.overlaps(b) {
                return false;
            }
        }
    }
    // Reads must not overlap any write hull. Exact declared intervals,
    // no guard extension: the arena's 256 B alignment routinely places a
    // write buffer flush against a read buffer's end, and a guard-zone
    // over-read into a write hull is policed dynamically instead — the
    // Paranoid containment check refuses the guard tolerance wherever it
    // would intersect a write footprint.
    for iv in &c.reads {
        if iv.is_empty() {
            continue;
        }
        if hulls.iter().any(|h| iv.overlaps(h)) {
            return false;
        }
    }
    true
}

/// Paranoid cross-validation: every traced access must be contained in the
/// declared footprint — reads in a declared read interval (guard-extended)
/// or the lane's own write window, writes in the lane's *own* write
/// window (so a false disjointness claim is caught), scratch accesses in
/// the lane's own scratch window. Also audits the shared budget: observed
/// per-block non-spilled scratch extent must not exceed the declaration.
/// At most one finding per kind is reported (the trace is deterministic,
/// so the first violation is stable).
pub(crate) fn check_trace_containment(
    contract: &AccessContract,
    accesses: &[Access],
    lc: LaunchConfig,
    total: usize,
    label: &str,
    phase: &str,
) -> Vec<VerifierFinding> {
    let mut out = Vec::new();
    let mut seen_read = false;
    let mut seen_write = false;
    // (scratch-footprint index, group) → max observed extent from the
    // window base, non-spilled accesses only.
    let mut extents: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for a in accesses {
        let bytes = a.bytes as u64;
        if a.scratch {
            let fp_idx = contract
                .scratch
                .iter()
                .position(|fp| fp.contains_lane(a.lane, a.addr, bytes));
            match fp_idx {
                Some(i) => {
                    if !a.spilled {
                        let fp = &contract.scratch[i];
                        let g = fp.group_of(a.lane);
                        let extent = a.addr + bytes - fp.window(g).start;
                        let e = extents.entry((i, g)).or_insert(0);
                        *e = (*e).max(extent);
                    }
                }
                None => {
                    let (seen, kind) = if a.write {
                        (&mut seen_write, VerifierFindingKind::UndeclaredWrite)
                    } else {
                        (&mut seen_read, VerifierFindingKind::UndeclaredRead)
                    };
                    if !*seen {
                        *seen = true;
                        out.push(VerifierFinding {
                            kind,
                            addr: a.addr,
                            bytes,
                            lane: Some(a.lane),
                            kernel: label.to_string(),
                            phase: phase.to_string(),
                            detail: "scratch access outside the lane's declared scratch window"
                                .to_string(),
                        });
                    }
                }
            }
        } else if a.write {
            if !contract
                .writes
                .iter()
                .any(|fp| fp.contains_lane(a.lane, a.addr, bytes))
                && !seen_write
            {
                seen_write = true;
                out.push(VerifierFinding {
                    kind: VerifierFindingKind::UndeclaredWrite,
                    addr: a.addr,
                    bytes,
                    lane: Some(a.lane),
                    kernel: label.to_string(),
                    phase: phase.to_string(),
                    detail: "store outside the lane's own declared write window".to_string(),
                });
            }
        } else {
            let exact = contract
                .reads
                .iter()
                .any(|iv| a.addr >= iv.start && a.addr + bytes <= iv.end);
            let own_window = contract
                .writes
                .iter()
                .any(|fp| fp.contains_lane(a.lane, a.addr, bytes));
            // The guard tolerance (benign one-past-the-end loads) stops
            // at any write hull: the static race proof uses exact read
            // intervals, so a guard-zone read inside a write footprint
            // would be an unproven RW pair — flag it.
            let span = Interval::bytes(a.addr, bytes);
            let guarded = !exact
                && contract
                    .reads
                    .iter()
                    .any(|iv| a.addr >= iv.start && a.addr + bytes <= iv.end + GUARD_BYTES)
                && !contract.writes.iter().any(|fp| span.overlaps(&fp.hull()));
            let declared = exact || own_window || guarded;
            if !declared && !seen_read {
                seen_read = true;
                out.push(VerifierFinding {
                    kind: VerifierFindingKind::UndeclaredRead,
                    addr: a.addr,
                    bytes,
                    lane: Some(a.lane),
                    kernel: label.to_string(),
                    phase: phase.to_string(),
                    detail: "load outside every declared read interval and write window"
                        .to_string(),
                });
            }
        }
    }
    // Shared-budget honesty: sum each block's group extents.
    if !extents.is_empty() {
        let per_block = (total / (lc.blocks as usize).max(1)).max(1) as u64;
        let mut block_usage: BTreeMap<u64, u64> = BTreeMap::new();
        for (&(i, g), &extent) in &extents {
            let first_lane = g * contract.scratch[i].lanes_per_group.max(1) as u64;
            *block_usage.entry(first_lane / per_block).or_insert(0) += extent;
        }
        if let Some((&block, &used)) = block_usage
            .iter()
            .find(|&(_, &used)| used > contract.shared_bytes_per_block)
        {
            out.push(VerifierFinding {
                kind: VerifierFindingKind::SharedBudgetUnderstated,
                addr: 0,
                bytes: used,
                lane: None,
                kernel: label.to_string(),
                phase: phase.to_string(),
                detail: format!(
                    "block {block} uses {used} B of shared scratch, contract declares {}",
                    contract.shared_bytes_per_block
                ),
            });
        }
    }
    out
}

/// Interval-check an analytic host-side primitive pass (scan / sort /
/// reduce / compact / transform) against the live allocation map. These
/// passes never go through `Device::launch`, so this is their whole
/// verification: concrete byte ranges, no lanes. Reads get the usual
/// guard tolerance; writes none.
pub(crate) fn check_host_pass(
    arena: &Arena,
    label: &str,
    phase: &str,
    reads: &[Interval],
    writes: &[Interval],
) -> Vec<VerifierFinding> {
    let mut out = Vec::new();
    for iv in reads {
        out.extend(check_interval_bounds(
            arena,
            *iv,
            GUARD_BYTES,
            VerifierFindingKind::OobRead,
            label,
            phase,
            "pass read",
        ));
    }
    for iv in writes {
        out.extend(check_interval_bounds(
            arena,
            *iv,
            0,
            VerifierFindingKind::OobWrite,
            label,
            phase,
            "pass write",
        ));
    }
    out
}

/// Seeded dishonest-contract self-test: kernels whose *contracts lie* —
/// a footprint narrower than the accesses, a false disjointness claim,
/// an understated shared budget, and a statically-out-of-bounds footprint
/// — each of which the verifier must catch. CI runs this
/// (`tcount verify-selftest`) to prove the static checker and the
/// Paranoid containment check are alive, the mirror image of proving the
/// real suite's contracts honest.
pub mod selftest {
    use super::{AccessContract, AffineFootprint, Interval, VerifierFindingKind, VerifierReport};
    use crate::arena::DeviceBuffer;
    use crate::config::DeviceConfig;
    use crate::device::Device;
    use crate::executor::LaunchConfig;
    use crate::kernel::{Effect, Kernel, Lane, MemView};
    use crate::sanitizer::SanitizerMode;

    /// Outcome of one seeded-lie kernel.
    #[derive(Clone, Debug)]
    pub struct SeededLie {
        /// Lie name (`"footprint-too-narrow"`, `"false-disjointness"`, …).
        pub name: &'static str,
        /// The finding kind the lie is seeded to produce.
        pub expected: VerifierFindingKind,
        /// Whether the verifier produced at least one finding of that kind.
        pub detected: bool,
        /// Whether the launch was statically rejected (static lies only).
        pub rejected: bool,
        /// The full verifier report of the seeded run.
        pub report: VerifierReport,
    }

    /// One-shot lane: returns a fixed effect on its first step, `Done`
    /// after.
    struct OneShotLane {
        effect: Option<Effect>,
    }

    impl Lane for OneShotLane {
        fn step(&mut self, _mem: &MemView<'_>) -> Effect {
            self.effect.take().unwrap_or(Effect::Done)
        }
    }

    /// Lane 0 reads the buffer's last element, but the contract only
    /// declares the first quarter — a footprint narrower than reality.
    struct NarrowFootprintKernel {
        data: DeviceBuffer<u32>,
    }

    impl Kernel for NarrowFootprintKernel {
        type Lane = OneShotLane;
        fn spawn(&self, tid: usize, _total: usize) -> OneShotLane {
            OneShotLane {
                effect: (tid == 0).then_some(Effect::Read {
                    addr: self.data.addr_of(self.data.len() - 1),
                    bytes: 4,
                    cached: true,
                }),
            }
        }
        fn contract(&self, _lc: LaunchConfig, _total: usize) -> Option<AccessContract> {
            Some(AccessContract {
                reads: vec![Interval::bytes(self.data.addr(), self.data.byte_len() / 4)],
                ..AccessContract::default()
            })
        }
    }

    /// Every lane stores to slot 0, but the contract claims the classic
    /// lane-private per-lane footprint — a structurally provable (and
    /// false) disjointness claim that only trace containment can catch.
    struct FalseDisjointKernel {
        result: DeviceBuffer<u64>,
    }

    impl Kernel for FalseDisjointKernel {
        type Lane = OneShotLane;
        fn spawn(&self, tid: usize, _total: usize) -> OneShotLane {
            OneShotLane {
                effect: Some(Effect::Write {
                    addr: self.result.addr(),
                    bytes: 8,
                    value: tid as u64,
                }),
            }
        }
        fn contract(&self, _lc: LaunchConfig, total: usize) -> Option<AccessContract> {
            Some(AccessContract {
                writes: vec![AffineFootprint::per_lane(
                    self.result.addr(),
                    8,
                    total as u64,
                )],
                ..AccessContract::default()
            })
        }
    }

    /// Lane 0 touches 132 B of its (honestly declared) scratch window,
    /// but the contract declares a 16 B shared budget.
    struct BudgetLieKernel {
        table: DeviceBuffer<u32>,
    }

    impl Kernel for BudgetLieKernel {
        type Lane = OneShotLane;
        fn spawn(&self, tid: usize, _total: usize) -> OneShotLane {
            OneShotLane {
                effect: (tid == 0).then_some(Effect::SharedWrite {
                    addr: self.table.addr() + 128,
                    bytes: 4,
                    value: 7,
                    spilled: false,
                }),
            }
        }
        fn contract(&self, _lc: LaunchConfig, total: usize) -> Option<AccessContract> {
            Some(AccessContract {
                scratch: vec![AffineFootprint {
                    base: self.table.addr(),
                    stride: self.table.byte_len(),
                    span: self.table.byte_len(),
                    groups: 1,
                    lanes_per_group: total as u32,
                    disjoint: false,
                }],
                shared_bytes_per_block: 16,
                ..AccessContract::default()
            })
        }
    }

    /// The contract's read interval runs 1 KB past a 64 B allocation —
    /// statically out of bounds, so the launch must be *rejected* before
    /// a single lane steps.
    struct StaticOobKernel {
        data: DeviceBuffer<u32>,
    }

    impl Kernel for StaticOobKernel {
        type Lane = OneShotLane;
        fn spawn(&self, tid: usize, _total: usize) -> OneShotLane {
            OneShotLane {
                effect: (tid == 0).then_some(Effect::Read {
                    addr: self.data.addr(),
                    bytes: 4,
                    cached: true,
                }),
            }
        }
        fn contract(&self, _lc: LaunchConfig, _total: usize) -> Option<AccessContract> {
            Some(AccessContract {
                reads: vec![Interval::bytes(self.data.addr(), 1024)],
                ..AccessContract::default()
            })
        }
    }

    /// A fresh device with the verifier on and the sanitizer in Paranoid
    /// mode: the containment check needs the dynamic lane-access trace.
    fn seeded_device() -> Device {
        let cfg = DeviceConfig::nvs_5200m()
            .with_unlimited_memory()
            .with_sanitizer(SanitizerMode::Paranoid)
            .with_verifier(true);
        let mut dev = Device::new(cfg);
        dev.preinit_context();
        dev.reset_clock();
        dev
    }

    fn outcome(
        name: &'static str,
        expected: VerifierFindingKind,
        rejected: bool,
        dev: &Device,
    ) -> SeededLie {
        let report = dev
            .verifier_report()
            .expect("seeded device runs with the verifier on");
        SeededLie {
            name,
            expected,
            detected: report.findings.iter().any(|f| f.kind == expected),
            rejected,
            report,
        }
    }

    /// Run the four seeded-lie kernels, each on a fresh verified device.
    pub fn run() -> Vec<SeededLie> {
        let lc = LaunchConfig::new(1, 64);
        let mut out = Vec::with_capacity(4);

        let mut dev = seeded_device();
        let data = dev.alloc::<u32>(64).unwrap();
        dev.poke(&data, &[7u32; 64]);
        let kernel = NarrowFootprintKernel { data };
        dev.with_phase("verify-selftest", |d| {
            d.launch("SeededNarrowFootprint", lc, &kernel)
        })
        .unwrap();
        out.push(outcome(
            "footprint-too-narrow",
            VerifierFindingKind::UndeclaredRead,
            false,
            &dev,
        ));

        let mut dev = seeded_device();
        let result = dev.alloc::<u64>(64).unwrap();
        dev.poke(&result, &[0u64; 64]);
        let kernel = FalseDisjointKernel { result };
        dev.with_phase("verify-selftest", |d| {
            d.launch("SeededFalseDisjoint", lc, &kernel)
        })
        .unwrap();
        out.push(outcome(
            "false-disjointness",
            VerifierFindingKind::UndeclaredWrite,
            false,
            &dev,
        ));

        let mut dev = seeded_device();
        let table = dev.alloc::<u32>(64).unwrap();
        let kernel = BudgetLieKernel { table };
        dev.with_phase("verify-selftest", |d| {
            d.launch("SeededBudgetLie", lc, &kernel)
        })
        .unwrap();
        out.push(outcome(
            "shared-budget-understated",
            VerifierFindingKind::SharedBudgetUnderstated,
            false,
            &dev,
        ));

        let mut dev = seeded_device();
        let data = dev.alloc::<u32>(16).unwrap();
        dev.poke(&data, &[1u32; 16]);
        let kernel = StaticOobKernel { data };
        let err = dev
            .with_phase("verify-selftest", |d| {
                d.launch("SeededStaticOob", lc, &kernel)
            })
            .is_err();
        out.push(outcome(
            "static-oob-footprint",
            VerifierFindingKind::OobRead,
            err,
            &dev,
        ));

        out
    }

    /// Whether every seeded lie was detected.
    pub fn all_detected(lies: &[SeededLie]) -> bool {
        !lies.is_empty() && lies.iter().all(|l| l.detected)
    }

    /// Deterministic JSON for the whole self-test (CI gate artifact).
    pub fn to_json(lies: &[SeededLie]) -> String {
        let mut out = String::from("{\n  \"seeded_lies\": [\n");
        for (i, l) in lies.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", l.name));
            out.push_str(&format!(
                "      \"expected\": \"{}\",\n",
                l.expected.token()
            ));
            out.push_str(&format!("      \"detected\": {},\n", l.detected));
            out.push_str(&format!("      \"rejected\": {},\n", l.rejected));
            out.push_str("      \"report\": ");
            let nested = l.report.to_json();
            let nested = nested.trim_end().replace('\n', "\n      ");
            out.push_str(&nested);
            out.push_str("\n    }");
            if i + 1 != lies.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  ],\n  \"all_detected\": {}\n}}\n",
            all_detected(lies)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_and_footprints_compose() {
        let iv = Interval::bytes(256, 64);
        assert_eq!(iv.len(), 64);
        assert!(iv.contains(256, 64));
        assert!(!iv.contains(300, 64));
        assert!(iv.overlaps(&Interval::bytes(300, 100)));
        assert!(!iv.overlaps(&Interval::bytes(320, 100)));
        assert!(
            !iv.overlaps(&Interval::bytes(300, 0)),
            "empty never overlaps"
        );

        let fp = AffineFootprint::per_lane(1024, 8, 4);
        assert!(fp.proven_disjoint());
        assert_eq!(fp.window(2), Interval::bytes(1040, 8));
        assert_eq!(fp.hull(), Interval::bytes(1024, 32));
        assert!(fp.contains_lane(3, 1048, 8));
        assert!(!fp.contains_lane(3, 1040, 8), "lane 3 owns window 3 only");
        assert!(!fp.contains_lane(9, 1024, 8), "lane past the group count");

        let wide = AffineFootprint {
            base: 0,
            stride: 4,
            span: 16,
            groups: 4,
            lanes_per_group: 32,
            disjoint: true,
        };
        assert!(!wide.proven_disjoint(), "stride < span is not provable");
        assert_eq!(wide.group_of(63), 1);

        let empty = AffineFootprint::per_lane(64, 8, 0);
        assert!(empty.hull().is_empty());
    }

    #[test]
    fn race_freedom_needs_disjoint_writes_and_separate_reads() {
        let clean = AccessContract {
            reads: vec![Interval::bytes(0, 256)],
            writes: vec![AffineFootprint::per_lane(1024, 8, 16)],
            ..AccessContract::default()
        };
        assert!(proves_race_freedom(&clean));

        // An unproven disjointness claim defeats the proof.
        let mut c = clean.clone();
        c.writes[0].stride = 4;
        assert!(!proves_race_freedom(&c));

        // An unclaimed footprint defeats it too.
        let mut c = clean.clone();
        c.writes[0].disjoint = false;
        assert!(!proves_race_freedom(&c));

        // Overlapping write hulls across footprints defeat it.
        let mut c = clean.clone();
        c.writes.push(AffineFootprint::per_lane(1024 + 64, 8, 16));
        assert!(!proves_race_freedom(&c));
        c.writes[1].base = 2048;
        assert!(proves_race_freedom(&c));

        // A read overlapping a write hull defeats it.
        let mut c = clean;
        c.reads.push(Interval::bytes(1000, 30));
        assert!(!proves_race_freedom(&c));
    }

    #[test]
    fn adjacent_read_and_write_buffers_still_prove() {
        // Read ends exactly where the write hull begins — the common
        // layout under the arena's 256 B alignment. Exact intervals
        // don't overlap, so the proof holds; guard-zone over-reads into
        // the hull are the Paranoid containment check's job.
        let c = AccessContract {
            reads: vec![Interval::bytes(0, 1024)],
            writes: vec![AffineFootprint::per_lane(1024, 8, 16)],
            ..AccessContract::default()
        };
        assert!(proves_race_freedom(&c));
    }

    #[test]
    fn guard_tolerance_stops_at_write_hulls() {
        // Read buffer ends exactly where the write hull begins (adjacent
        // allocations). The static proof accepted this layout on exact
        // intervals, so the dynamic guard tolerance must not quietly
        // admit an over-read into the hull — that would be the unproven
        // RW pair the skipped racecheck can no longer catch.
        let contract = AccessContract {
            reads: vec![Interval::bytes(768, 256)],
            writes: vec![AffineFootprint::per_lane(1024, 8, 16)],
            ..AccessContract::default()
        };
        let lc = LaunchConfig::new(1, 64);
        let over_read = vec![Access {
            lane: 5,
            addr: 1024,
            bytes: 4,
            write: false,
            scratch: false,
            spilled: false,
        }];
        let f = check_trace_containment(&contract, &over_read, lc, 16, "k", "p");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, VerifierFindingKind::UndeclaredRead);
        // Lane 0 reading its own window at the same address is fine.
        let own = vec![Access {
            lane: 0,
            addr: 1024,
            bytes: 4,
            write: false,
            scratch: false,
            spilled: false,
        }];
        assert!(check_trace_containment(&contract, &own, lc, 16, "k", "p").is_empty());
        // And with the hull elsewhere, the same over-read is the benign
        // one-past-the-end pattern the guard exists for.
        let mut clear = contract;
        clear.writes[0].base = 4096;
        let f = check_trace_containment(&clear, &over_read, lc, 16, "k", "p");
        assert!(f.is_empty());
    }

    #[test]
    fn containment_accepts_honest_traces_and_flags_lies() {
        let contract = AccessContract {
            reads: vec![Interval::bytes(0, 256)],
            writes: vec![AffineFootprint::per_lane(1024, 8, 16)],
            scratch: vec![AffineFootprint {
                base: 4096,
                stride: 64,
                span: 64,
                groups: 2,
                lanes_per_group: 8,
                disjoint: true,
            }],
            shared_bytes_per_block: 128,
        };
        let lc = LaunchConfig::new(1, 64);
        let honest = vec![
            Access {
                lane: 3,
                addr: 100,
                bytes: 4,
                write: false,
                scratch: false,
                spilled: false,
            },
            // Guard-window read one past the declared interval.
            Access {
                lane: 3,
                addr: 256,
                bytes: 4,
                write: false,
                scratch: false,
                spilled: false,
            },
            Access {
                lane: 3,
                addr: 1024 + 24,
                bytes: 8,
                write: true,
                scratch: false,
                spilled: false,
            },
            // Lane 3 may read back its own write window.
            Access {
                lane: 3,
                addr: 1024 + 24,
                bytes: 8,
                write: false,
                scratch: false,
                spilled: false,
            },
            // Lane 9 is in scratch group 1 (window 4160..4224).
            Access {
                lane: 9,
                addr: 4160 + 32,
                bytes: 4,
                write: true,
                scratch: true,
                spilled: false,
            },
        ];
        assert!(check_trace_containment(&contract, &honest, lc, 16, "k", "p").is_empty());

        // Lane 3 writing lane 2's slot: a disjointness lie.
        let lying_write = vec![Access {
            lane: 3,
            addr: 1024 + 16,
            bytes: 8,
            write: true,
            scratch: false,
            spilled: false,
        }];
        let f = check_trace_containment(&contract, &lying_write, lc, 16, "k", "p");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, VerifierFindingKind::UndeclaredWrite);
        assert_eq!(f[0].lane, Some(3));

        // A read far outside every declared range.
        let lying_read = vec![
            Access {
                lane: 0,
                addr: 9000,
                bytes: 4,
                write: false,
                scratch: false,
                spilled: false,
            },
            Access {
                lane: 1,
                addr: 9004,
                bytes: 4,
                write: false,
                scratch: false,
                spilled: false,
            },
        ];
        let f = check_trace_containment(&contract, &lying_read, lc, 16, "k", "p");
        assert_eq!(f.len(), 1, "at most one finding per kind");
        assert_eq!(f[0].kind, VerifierFindingKind::UndeclaredRead);

        // Budget honesty: two groups of one block summing past the budget.
        let hungry = vec![
            Access {
                lane: 0,
                addr: 4096 + 60,
                bytes: 4,
                write: true,
                scratch: true,
                spilled: false,
            },
            Access {
                lane: 9,
                addr: 4160 + 60,
                bytes: 4,
                write: true,
                scratch: true,
                spilled: false,
            },
        ];
        let mut tight = contract;
        tight.shared_bytes_per_block = 100; // observed: 64 + 64 = 128
        let f = check_trace_containment(&tight, &hungry, lc, 16, "k", "p");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, VerifierFindingKind::SharedBudgetUnderstated);
        assert_eq!(f[0].bytes, 128);
        // Spilled accesses don't count against the budget.
        let spilled: Vec<Access> = hungry
            .iter()
            .map(|a| Access {
                spilled: true,
                ..*a
            })
            .collect();
        assert!(check_trace_containment(&tight, &spilled, lc, 16, "k", "p").is_empty());
    }

    #[test]
    fn report_json_is_deterministic_and_balanced() {
        let report = VerifierReport {
            device: "GTX 980".into(),
            launches_checked: 5,
            launches_proven: 4,
            racechecks_skipped: 3,
            passes_checked: 7,
            findings: vec![VerifierFinding {
                kind: VerifierFindingKind::UnprovenDisjointness,
                addr: 4096,
                bytes: 16,
                lane: None,
                kernel: "CountTriangles".into(),
                phase: "count/count-kernel".into(),
                detail: "stride 4 < span 16".into(),
            }],
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"kind\": \"unproven-disjointness\""));
        assert!(json.contains("\"launches_proven\": 4"));
        assert!(json.contains("\"racechecks_skipped\": 3"));
        assert!(json.contains("\"lane\": null"));
    }

    #[test]
    fn merged_reports_sum_counters_and_concatenate() {
        let mk = |addr| VerifierReport {
            device: "C2050".into(),
            launches_checked: 2,
            launches_proven: 1,
            racechecks_skipped: 1,
            passes_checked: 3,
            findings: vec![VerifierFinding {
                kind: VerifierFindingKind::OobWrite,
                addr,
                bytes: 8,
                lane: None,
                kernel: "k".into(),
                phase: String::new(),
                detail: String::new(),
            }],
        };
        let m = VerifierReport::merged(&[mk(1), mk(2)]);
        assert_eq!(m.launches_checked, 4);
        assert_eq!(m.launches_proven, 2);
        assert_eq!(m.passes_checked, 6);
        assert_eq!(m.findings.len(), 2);
        assert_eq!(m.findings[0].addr, 1);
        assert_eq!(m.findings[1].addr, 2);
        assert!(!m.is_clean());
        assert!(
            VerifierReport::merged(&[]).is_clean(),
            "empty merge is clean"
        );
    }

    #[test]
    fn selftest_detects_all_four_seeded_lies() {
        let lies = selftest::run();
        assert_eq!(lies.len(), 4);
        for l in &lies {
            assert!(l.detected, "{} must be detected", l.name);
        }
        assert!(selftest::all_detected(&lies));
        // The static lie is rejected before any lane steps; the dynamic
        // lies need the trace, so their launches run to completion.
        assert!(lies.iter().any(|l| l.rejected));
        assert_eq!(
            lies.iter().filter(|l| l.rejected).count(),
            1,
            "only the static-oob lie is rejected pre-launch"
        );
        // Deterministic, byte-identical JSON across runs.
        let a = selftest::to_json(&lies);
        let b = selftest::to_json(&selftest::run());
        assert_eq!(a, b);
        assert!(a.contains("\"all_detected\": true"));
    }
}
