//! The static kernel-launch verifier must be three things at once:
//! **honest** (every shipped kernel's declared footprint contains its
//! actual lane-access trace, across the whole evaluation suite, on every
//! device preset and schedule), a **pure observer** (verification is
//! host-side bookkeeping: modeled time and every modeled counter are
//! bit-identical with the verifier on), and a **safe substitute** (when a
//! launch is statically proven race-free, skipping the Check-mode dynamic
//! racecheck changes neither the sanitizer findings nor the modeled
//! numbers).

mod common;

use triangles::core::count::{Backend, CountRequest};
use triangles::core::cpu::count_forward;
use triangles::gen::suite::{full_suite, Scale};
use triangles::graph::EdgeArray;
use triangles::simt::verifier::selftest;

fn run(g: &EdgeArray, token: &str) -> triangles::core::TriangleCount {
    let backend: Backend = token.parse().unwrap_or_else(|e| panic!("{token}: {e}"));
    CountRequest::new(backend)
        .run(g)
        .unwrap_or_else(|e| panic!("{token}: {e}"))
}

/// Every dynamic lane access must land inside the kernel's declared
/// static footprint. Paranoid mode cross-validates the sanitizer trace
/// against the contract, so a clean verifier report here *is* the
/// containment proof — for every suite graph, device preset, and
/// schedule we ship.
#[test]
fn whole_suite_traces_are_contained_in_declared_footprints() {
    let suite = full_suite(Scale::Smoke);
    for row in &suite {
        let want = count_forward(&row.graph).unwrap();
        for device in ["nvs5200m", "c2050", "gtx980"] {
            for schedule in ["", "/balanced", "/balanced+hash"] {
                let token = format!("{device}{schedule}/sanitize:paranoid/verify");
                let result = run(&row.graph, &token);
                assert_eq!(result.triangles, want, "{} on {token}", row.name);
                let report = result
                    .verifier
                    .as_ref()
                    .expect("verified backends attach a report");
                assert!(
                    report.is_clean(),
                    "{} on {token}: trace escaped the declared footprint:\n{}",
                    row.name,
                    report.to_json()
                );
                assert!(report.launches_checked > 0, "{} on {token}", row.name);
                // Every shipped kernel declares a contract and every
                // checked launch is proven race-free, so the proof count
                // matches the launch count exactly.
                assert_eq!(
                    report.launches_proven, report.launches_checked,
                    "{} on {token}: a launch went unproven",
                    row.name
                );
                // Paranoid never skips the dynamic sweep — it is the
                // cross-validation mode, not the fast path.
                assert_eq!(report.racechecks_skipped, 0, "{} on {token}", row.name);
            }
        }
    }
}

/// Check mode with the verifier on skips the dynamic racecheck for every
/// proven launch — and that skip must be invisible: byte-identical
/// sanitizer findings and bit-identical modeled perf versus the
/// unverified Check run.
#[test]
fn check_mode_skip_is_byte_identical_to_the_full_sweep() {
    let suite = full_suite(Scale::Smoke);
    for row in &suite {
        for token in ["gtx980/sanitize", "c2050/balanced/sanitize"] {
            let swept = run(&row.graph, token);
            let skipped = run(&row.graph, &format!("{token}/verify"));
            assert_eq!(swept.triangles, skipped.triangles, "{} {token}", row.name);
            let (a, b) = (
                swept.sanitizer.as_ref().unwrap(),
                skipped.sanitizer.as_ref().unwrap(),
            );
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{} {token}: skipping proven racechecks changed the findings",
                row.name
            );
            assert_eq!(
                swept.seconds.to_bits(),
                skipped.seconds.to_bits(),
                "{} {token}: skipping proven racechecks changed modeled time",
                row.name
            );
            let vr = skipped.verifier.as_ref().unwrap();
            assert!(vr.is_clean(), "{}", vr.to_json());
            assert_eq!(
                vr.racechecks_skipped, vr.launches_proven,
                "{} {token}: a proven launch still paid the dynamic sweep",
                row.name
            );
            assert!(vr.racechecks_skipped > 0, "{} {token}", row.name);
        }
    }
}

/// The verifier alone (no sanitizer) is free: bit-identical modeled time
/// and identical per-kernel profile versus the plain run.
#[test]
fn verifier_charges_no_modeled_time() {
    let suite = full_suite(Scale::Smoke);
    for row in suite.iter().take(4) {
        let plain = run(&row.graph, "gtx980/balanced");
        let verified = run(&row.graph, "gtx980/balanced/verify");
        assert!(plain.verifier.is_none());
        assert_eq!(plain.triangles, verified.triangles, "{}", row.name);
        assert_eq!(
            plain.seconds.to_bits(),
            verified.seconds.to_bits(),
            "{}: the verifier changed the modeled wall time",
            row.name
        );
        let (p, v) = (plain.gpu.unwrap(), verified.gpu.unwrap());
        assert_eq!(p.kernel, v.kernel, "{}", row.name);
        assert_eq!(p.preprocess_s.to_bits(), v.preprocess_s.to_bits());
        assert_eq!(p.peak_device_bytes, v.peak_device_bytes);
        let report = verified.verifier.unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
        // Analytic primitive passes (scan/sort/compact/…) are
        // interval-checked too, not just lockstep launches.
        assert!(report.passes_checked > 0, "{}", row.name);
    }
}

/// The hash-intersection kernel's contract covers its per-virtual-warp
/// scratch windows and shared-memory budget. A clique is the one smoke
/// graph dense enough for the tuner to actually engage the hash bin, so
/// this is the contract's only real exercise of those clauses.
#[test]
fn hash_strategy_contract_contains_its_scratch_traffic() {
    let n = 80u32;
    let mut pairs = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            pairs.push((u, v));
        }
    }
    let g = EdgeArray::from_undirected_pairs(pairs);
    let want = count_forward(&g).unwrap();
    for token in [
        "gtx980/balanced+hash/sanitize:paranoid/verify",
        "gtx980/balanced+hash/reorder/sanitize/verify",
    ] {
        let result = run(&g, token);
        assert_eq!(result.triangles, want, "{token}");
        let report = result.verifier.as_ref().expect("report present");
        assert!(report.is_clean(), "{token}:\n{}", report.to_json());
    }
}

/// Multi-device backends merge their per-device verifier reports in
/// device-index order; the merged report must be clean and account for
/// every shard's launches.
#[test]
fn multi_device_backends_merge_clean_reports() {
    let suite = full_suite(Scale::Smoke);
    let row = &suite[3]; // citeseer: triangle-dense, exercises heavy bins
    let want = count_forward(&row.graph).unwrap();
    let single = run(&row.graph, "gtx980/verify");
    let single_launches = single.verifier.as_ref().unwrap().launches_checked;
    for token in [
        "2xc2050/verify",
        "4xgtx980/balanced/verify",
        "gtx980/split:3/verify",
        "cluster:2x2/gtx980/verify",
    ] {
        let result = run(&row.graph, token);
        assert_eq!(result.triangles, want, "{token}");
        let report = result.verifier.as_ref().expect("report present");
        assert!(report.is_clean(), "{token}:\n{}", report.to_json());
        assert!(
            report.launches_checked >= single_launches,
            "{token}: merged report dropped shard launches"
        );
    }
}

/// Dishonest contracts must be caught, and caught deterministically: the
/// seeded-lie suite (narrow footprints, false disjointness claims,
/// understated shared budgets, undeclared writes) produces byte-identical
/// reports run to run, with every lie detected, pinned as a golden file.
#[test]
fn seeded_lies_are_detected_with_byte_identical_reports() {
    let first = selftest::run();
    assert!(
        selftest::all_detected(&first),
        "a seeded contract lie went undetected:\n{}",
        selftest::to_json(&first)
    );
    let second = selftest::run();
    assert_eq!(
        selftest::to_json(&first),
        selftest::to_json(&second),
        "seeded-lie reports must be deterministic"
    );
    common::assert_golden(
        "tests/golden/verify_selftest.json",
        &selftest::to_json(&first),
    );
}

/// A kernel whose contract the verifier proves — so Check mode skips the
/// racecheck sweep and keeps no access log — but which at run time reads
/// past its input (beyond the guard window) and reads a buffer nothing
/// wrote. Streamed memcheck and initcheck must still report every such
/// access, attributed and ordered exactly as a replay of the full access
/// log does.
#[test]
fn proven_launches_stream_memcheck_and_initcheck_without_a_log() {
    use triangles::simt::{
        AccessContract, AffineFootprint, Device, DeviceBuffer, DeviceConfig, Effect, FindingKind,
        Interval, Kernel, Lane, LaunchConfig, MemView, SanitizerMode,
    };

    const N: usize = 200;
    const M: usize = 64;

    /// Lane `tid` loads `src[tid % N]`, then — on sparse lane subsets —
    /// `src[N + 3]` (past the guard window) and `blank[tid % M]` (never
    /// written), then stores `out[tid]`.
    struct LyingKernel {
        src: DeviceBuffer<u32>,
        blank: DeviceBuffer<u32>,
        out: DeviceBuffer<u32>,
    }
    struct LyingLane {
        tid: usize,
        step: u32,
        src: DeviceBuffer<u32>,
        blank: DeviceBuffer<u32>,
        out: DeviceBuffer<u32>,
    }
    impl Lane for LyingLane {
        fn step(&mut self, _mem: &MemView<'_>) -> Effect {
            self.step += 1;
            let read = |addr| Effect::Read {
                addr,
                bytes: 4,
                cached: true,
            };
            match self.step {
                1 => read(self.src.addr_of(self.tid % N)),
                2 if self.tid % 397 == 5 => read(self.src.addr() + 4 * (N as u64 + 3)),
                2 => Effect::Compute { cycles: 2 },
                3 if self.tid % 611 == 7 => read(self.blank.addr_of(self.tid % M)),
                3 => Effect::Compute { cycles: 2 },
                4 => Effect::Write {
                    addr: self.out.addr_of(self.tid),
                    bytes: 4,
                    value: self.tid as u64,
                },
                _ => Effect::Done,
            }
        }
    }
    impl Kernel for LyingKernel {
        type Lane = LyingLane;
        fn spawn(&self, tid: usize, _total: usize) -> LyingLane {
            LyingLane {
                tid,
                step: 0,
                src: self.src,
                blank: self.blank,
                out: self.out,
            }
        }
        fn contract(&self, _lc: LaunchConfig, total: usize) -> Option<AccessContract> {
            Some(AccessContract {
                reads: vec![
                    Interval::bytes(self.src.addr(), self.src.byte_len()),
                    Interval::bytes(self.blank.addr(), self.blank.byte_len()),
                ],
                writes: vec![AffineFootprint::per_lane(self.out.addr(), 4, total as u64)],
                ..AccessContract::default()
            })
        }
    }

    let cfg = DeviceConfig::gtx_980()
        .with_unlimited_memory()
        .with_sanitizer(SanitizerMode::Check)
        .with_verifier(true);
    let mut dev = Device::new(cfg);
    let src = dev.htod_copy(&[5u32; N]).unwrap();
    let blank = dev.alloc::<u32>(M).unwrap();
    let lc = LaunchConfig::new(40, 64);
    let out = dev.alloc::<u32>(lc.active_threads(32)).unwrap();
    let kernel = LyingKernel { src, blank, out };
    dev.with_phase("lying", |d| d.launch("LyingKernel", lc, &kernel))
        .unwrap();

    let vr = dev.verifier_report().unwrap();
    assert!(vr.is_clean(), "{}", vr.to_json());
    assert_eq!((vr.launches_proven, vr.racechecks_skipped), (1, 1));

    let report = dev.sanitizer_report().unwrap();
    let got: Vec<(FindingKind, u64, Option<u64>, Option<u32>)> = report
        .findings
        .iter()
        .map(|f| (f.kind, f.addr, f.buffer, f.lane))
        .collect();
    // What a replay of the full access log reports: memcheck/initcheck
    // findings in access-log order, which merges the SMs' streams in SM
    // index order (blocks go round-robin to the 16 SMs, so lane ids are
    // not monotonic).
    let (oob, uninit) = (FindingKind::OobRead, FindingKind::UninitRead);
    let (s, b) = (Some(src.addr()), Some(blank.addr()));
    let past = src.addr() + 4 * (N as u64 + 3);
    let want = vec![
        (oob, past, s, Some(5)),
        (uninit, blank.addr_of(7), b, Some(7)),
        (oob, past, s, Some(1196)),
        (uninit, blank.addr_of(1229 % M), b, Some(1229)),
        (oob, past, s, Some(2387)),
        (uninit, blank.addr_of(2451 % M), b, Some(2451)),
        (oob, past, s, Some(402)),
        (oob, past, s, Some(1593)),
        (uninit, blank.addr_of(618 % M), b, Some(618)),
        (oob, past, s, Some(799)),
        (uninit, blank.addr_of(1840 % M), b, Some(1840)),
        (oob, past, s, Some(1990)),
    ];
    assert_eq!(got, want, "{}", report.to_json());
    for f in &report.findings {
        assert_eq!(
            (f.kernel.as_str(), f.phase.as_str(), f.bytes),
            ("LyingKernel", "lying", 4)
        );
    }
}
