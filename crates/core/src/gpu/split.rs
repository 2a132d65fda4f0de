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
use tc_simt::{ProfileReport, SanitizerReport, VerifierReport};

use crate::count::GpuOptions;
use crate::error::CoreError;
use crate::gpu::merge_reports;
use crate::gpu::pipeline::run_gpu_pipeline_profiled;

/// Outcome of a split run.
#[derive(Clone, Debug)]
pub struct SplitReport {
    pub triangles: u64,
    /// Sum of the modeled device times of all subproblems (they run
    /// sequentially on one device — the point is capacity, not speed).
    pub total_s: f64,
    /// Number of subproblems executed (`p + C(p,2) + C(p,3)`).
    pub subproblems: usize,
    /// Largest single-subproblem arc count — the quantity that must fit.
    pub max_subproblem_arcs: usize,
    /// Merged compute-sanitizer findings across every executed subproblem,
    /// in execution order (`None` when the sanitizer was off).
    pub sanitizer: Option<SanitizerReport>,
    /// Merged static launch-verifier reports across every executed
    /// subproblem, in execution order (`None` when the verifier was off).
    pub verifier: Option<VerifierReport>,
    /// Per-phase profiles of every executed subproblem, merged in
    /// execution order: counters sum across subproblems.
    pub profile: ProfileReport,
}

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
pub fn count_split(
    g: &EdgeArray,
    opts: &GpuOptions,
    parts: usize,
) -> Result<SplitReport, CoreError> {
    if parts == 0 {
        return Err(CoreError::InvalidBackend(
            "a split run needs at least one part".into(),
        ));
    }
    let n = g.num_nodes();
    if parts == 1 || n == 0 {
        let (r, trace) = run_gpu_pipeline_profiled(g, opts)?;
        return Ok(SplitReport {
            triangles: r.triangles,
            total_s: r.total_s,
            subproblems: 1,
            max_subproblem_arcs: g.num_arcs(),
            sanitizer: r.sanitizer,
            verifier: r.verifier,
            profile: trace.profile,
        });
    }

    let mut total_s = 0.0;
    let mut subproblems = 0usize;
    let mut max_arcs = 0usize;
    let mut sub_sanitizer: Vec<Option<SanitizerReport>> = Vec::new();
    let mut sub_verifier: Vec<Option<VerifierReport>> = Vec::new();
    let mut sub_profiles: Vec<ProfileReport> = Vec::new();
    let mut run = |keep: &[usize]| -> Result<u64, CoreError> {
        let sub = induced(g, n, parts, keep);
        max_arcs = max_arcs.max(sub.num_arcs());
        subproblems += 1;
        if sub.is_empty() {
            return Ok(0);
        }
        let (r, trace) = run_gpu_pipeline_profiled(&sub, opts)?;
        total_s += r.total_s;
        sub_sanitizer.push(r.sanitizer);
        sub_verifier.push(r.verifier);
        sub_profiles.push(trace.profile);
        Ok(r.triangles)
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
    Ok(SplitReport {
        triangles: n1 + n2 + n3,
        total_s,
        subproblems,
        max_subproblem_arcs: max_arcs,
        sanitizer: merge_reports(sub_sanitizer, SanitizerReport::merged),
        verifier: merge_reports(sub_verifier, VerifierReport::merged),
        profile: ProfileReport::merged(&sub_profiles),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::count_forward;
    use crate::gpu::pipeline::run_gpu_pipeline;
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
            let r = count_split(&g, &opts, parts).unwrap();
            assert_eq!(r.triangles, want, "parts = {parts}");
        }
    }

    #[test]
    fn subproblem_count_is_binomial_sum() {
        let g = messy_graph();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = count_split(&g, &opts, 4).unwrap();
        // 4 singles + 6 pairs + 4 triples
        assert_eq!(r.subproblems, 14);
        assert!(r.max_subproblem_arcs < g.num_arcs());
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
            run_gpu_pipeline(&g, &opts).is_err(),
            "whole graph must not fit for this test to be meaningful"
        );
        let r = count_split(&g, &opts, 6).unwrap();
        assert_eq!(r.triangles, want);
    }

    #[test]
    fn split_profile_merges_every_subproblem() {
        let g = messy_graph();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = count_split(&g, &opts, 3).unwrap();
        // Re-run each subproblem in the split's execution order.
        let subsets: [&[usize]; 7] = [&[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];
        let mut lane_steps = 0;
        for keep in subsets {
            let (_, trace) =
                run_gpu_pipeline_profiled(&induced(&g, g.num_nodes(), 3, keep), &opts).unwrap();
            lane_steps += trace.profile.totals.lane_steps;
        }
        assert!(lane_steps > 0);
        assert_eq!(r.profile.totals.lane_steps, lane_steps);
        assert!(r.profile.span("count/count-kernel").is_some());

        // `--profile` on a `/split:k` backend attaches the merged profile.
        let backend = crate::count::Backend::GpuSplit {
            options: opts,
            parts: 3,
        };
        let counted = crate::count::CountRequest::new(backend)
            .profile(true)
            .run(&g)
            .unwrap();
        let profile = counted.profile.expect("split runs carry a profile");
        assert_eq!(profile.totals.lane_steps, lane_steps);
    }

    #[test]
    fn empty_graph_splits_to_zero() {
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = count_split(&EdgeArray::default(), &opts, 4).unwrap();
        assert_eq!(r.triangles, 0);
    }

    #[test]
    fn parts_two_uses_pairs_only() {
        let g = messy_graph();
        let want = count_forward(&g).unwrap();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let r = count_split(&g, &opts, 2).unwrap();
        assert_eq!(r.triangles, want);
        assert_eq!(r.subproblems, 3); // 2 singles + 1 pair
    }
}
