//! Graph splitting for out-of-capacity inputs — the first future-work
//! direction of §VI ("check if methods from \[5\], \[17\] can be applied … this
//! would allow to count triangles in graphs which do not fit into the GPU
//! memory").
//!
//! Implements the Suri–Vassilvitskii partition scheme \[5\]: vertices are
//! split into `p` contiguous id ranges; for every unordered triple of parts
//! `{a, b, c}` the subgraph induced on `Pa ∪ Pb ∪ Pc` is counted
//! independently (here: each subproblem through the ordinary single-GPU
//! pipeline, so each needs only its own — much smaller — slice of device
//! memory). A triangle with `d` distinct corner parts is found in several
//! subproblems:
//!
//! | d | triples containing it | pairs | singles |
//! |---|---|---|---|
//! | 3 | 1 | 0 | 0 |
//! | 2 | p − 2 | 1 | 0 |
//! | 1 | C(p−1, 2) | p − 1 | 1 |
//!
//! so running the pair and single subproblems too lets us solve for the
//! true total:
//! `n1 = t1`, `n2 = t2 − (p−1)·t1`, `n3 = t3 − (p−2)·n2 − C(p−1,2)·n1`.

use tc_graph::{Edge, EdgeArray};
use tc_simt::{KernelStats, ProfileReport, SanitizerReport, VerifierReport};

use crate::count::GpuOptions;
use crate::error::CoreError;
use crate::gpu::merge_reports;
use crate::gpu::pipeline::{self, GpuReport};

/// Partition id: contiguous ranges keep the induced-subgraph extraction a
/// single pass.
#[inline]
fn part_of(v: u32, n: usize, parts: usize) -> usize {
    debug_assert!((v as usize) < n.max(1));
    (v as usize * parts) / n.max(1)
}

/// Extract the subgraph induced on the union of the given parts.
fn induced(g: &EdgeArray, n: usize, parts: usize, keep: &[usize]) -> EdgeArray {
    let arcs: Vec<Edge> = g
        .arcs()
        .iter()
        .copied()
        .filter(|e| {
            keep.contains(&part_of(e.u, n, parts)) && keep.contains(&part_of(e.v, n, parts))
        })
        .collect();
    EdgeArray::from_arcs_unchecked(arcs)
}

/// Count triangles by splitting into `parts` vertex ranges and solving the
/// inclusion system above. `parts >= 3`; with `parts == 1` this degenerates
/// to the plain pipeline, and `parts == 0` is a
/// [`CoreError::InvalidBackend`].
///
/// The subproblems run one after another (the point is capacity, not
/// speed), so the report's times are sums over them in run order, its
/// profile merges theirs, and it has no per-device traces.
pub(crate) fn run(g: &EdgeArray, opts: &GpuOptions, parts: usize) -> Result<GpuReport, CoreError> {
    if parts == 0 {
        return Err(CoreError::InvalidBackend(
            "a split run needs at least one part".into(),
        ));
    }
    let n = g.num_nodes();
    if parts == 1 || n == 0 {
        let mut r = pipeline::run(g, opts)?;
        r.traces.clear();
        return Ok(r);
    }

    // Every subproblem that ran (empty ones are skipped), in run order.
    let mut subs: Vec<GpuReport> = Vec::new();
    let mut run = |keep: &[usize]| -> Result<u64, CoreError> {
        let sub = induced(g, n, parts, keep);
        if sub.is_empty() {
            return Ok(0);
        }
        let r = pipeline::run(&sub, opts)?;
        let triangles = r.triangles;
        subs.push(r);
        Ok(triangles)
    };

    let p = parts as u64;
    let mut t1 = 0u64;
    for a in 0..parts {
        t1 += run(&[a])?;
    }
    let mut t2 = 0u64;
    for a in 0..parts {
        for b in (a + 1)..parts {
            t2 += run(&[a, b])?;
        }
    }
    let mut t3 = 0u64;
    for a in 0..parts {
        for b in (a + 1)..parts {
            for c in (b + 1)..parts {
                t3 += run(&[a, b, c])?;
            }
        }
    }

    let n1 = t1;
    let n2 = t2 - (p - 1) * n1;
    let n3 = if parts >= 3 {
        t3 - (p - 2) * n2 - (p - 1) * (p - 2) / 2 * n1
    } else {
        0
    };
    let sum = |f: fn(&GpuReport) -> f64| subs.iter().fold(0.0, |acc, r| acc + f(r));
    let mut kernel: Option<&KernelStats> = None;
    for r in &subs {
        if kernel.is_none_or(|k| r.kernel.time_s > k.time_s) {
            kernel = Some(&r.kernel);
        }
    }
    let profiles: Vec<ProfileReport> = subs.iter().map(|r| r.profile.clone()).collect();
    Ok(GpuReport {
        triangles: n1 + n2 + n3,
        total_s: sum(|r| r.total_s),
        preprocess_s: sum(|r| r.preprocess_s),
        count_s: sum(|r| r.count_s),
        kernel: kernel.cloned().unwrap_or_default(),
        used_cpu_fallback: subs.iter().any(|r| r.used_cpu_fallback),
        peak_device_bytes: subs.iter().map(|r| r.peak_device_bytes).max().unwrap_or(0),
        sanitizer: merge_reports(
            subs.iter().map(|r| r.sanitizer.clone()),
            SanitizerReport::merged,
        ),
        verifier: merge_reports(
            subs.iter().map(|r| r.verifier.clone()),
            VerifierReport::merged,
        ),
        profile: ProfileReport::merged(&profiles),
        traces: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::count_forward;
    use tc_simt::DeviceConfig;

    fn messy_graph() -> EdgeArray {
        // Pseudo-random graph with triangles crossing all part boundaries.
        let mut pairs = Vec::new();
        let mut x = 7u64;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((x >> 33) % 120) as u32;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((x >> 33) % 120) as u32;
            pairs.push((a, b));
        }
        EdgeArray::from_undirected_pairs(pairs)
    }

    #[test]
    fn split_counts_match_for_various_part_counts() {
        let g = messy_graph();
        let want = count_forward(&g).unwrap();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        for parts in [1usize, 2, 3, 4, 5] {
            let r = run(&g, &opts, parts).unwrap();
            assert_eq!(r.triangles, want, "parts = {parts}");
        }
    }

    #[test]
    fn subproblem_count_is_binomial_sum() {
        let g = messy_graph();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = run(&g, &opts, 4).unwrap();
        // 4 singles + 6 pairs + 4 triples, each smaller than the whole.
        assert_eq!(r.profile.devices, 14);
        let whole = pipeline::run(&g, &opts).unwrap();
        assert!(r.peak_device_bytes < whole.peak_device_bytes);
    }

    #[test]
    fn split_fits_where_the_whole_graph_does_not() {
        let g = messy_graph();
        let want = count_forward(&g).unwrap();
        // Capacity below the whole graph's fallback needs but enough for
        // the largest 3-part subproblem.
        let whole_fallback = crate::gpu::preprocess::fallback_path_peak_bytes(&g);
        let launch = tc_simt::LaunchConfig::new(2, 64);
        let reserve = launch.active_threads(32) as u64 * 8;
        let mut opts = GpuOptions::new(
            DeviceConfig::gtx_980().with_memory_capacity(whole_fallback / 2 + reserve),
        );
        opts.launch = Some(launch);
        assert!(
            pipeline::run(&g, &opts).is_err(),
            "whole graph must not fit for this test to be meaningful"
        );
        let r = run(&g, &opts, 6).unwrap();
        assert_eq!(r.triangles, want);
    }

    #[test]
    fn split_profile_merges_every_subproblem() {
        let g = messy_graph();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = run(&g, &opts, 3).unwrap();
        // Re-run each subproblem in the split's execution order.
        let subsets: [&[usize]; 7] = [&[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];
        let mut lane_steps = 0;
        for keep in subsets {
            let sub = pipeline::run(&induced(&g, g.num_nodes(), 3, keep), &opts).unwrap();
            lane_steps += sub.profile.totals.lane_steps;
        }
        assert!(lane_steps > 0);
        assert_eq!(r.profile.totals.lane_steps, lane_steps);
        assert!(r.profile.span("count/count-kernel").is_some());

        assert!(r.traces.is_empty(), "split runs have no device timeline");
    }

    #[test]
    fn empty_graph_splits_to_zero() {
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = run(&EdgeArray::default(), &opts, 4).unwrap();
        assert_eq!(r.triangles, 0);
    }

    #[test]
    fn parts_two_uses_pairs_only() {
        let g = messy_graph();
        let want = count_forward(&g).unwrap();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = run(&g, &opts, 2).unwrap();
        assert_eq!(r.triangles, want);
        assert_eq!(r.profile.devices, 3); // 2 singles + 1 pair
    }
}
