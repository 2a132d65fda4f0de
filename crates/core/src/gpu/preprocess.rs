//! The preprocessing phase (§III-B) and its CPU fallback (§III-D6).
//!
//! Eight steps on the device:
//!
//! 1. copy the edge array to device memory (arcs packed `(u << 32) | v`;
//!    the paper packs pairs into 64-bit values too, §III-D2);
//! 2. vertex count = max identifier + 1, via `thrust::reduce(max)`;
//! 3. radix-sort the packed arcs — the peak-memory step;
//! 4. build the node array by boundary detection;
//! 5. mark arcs going from higher- to lower-degree endpoints (ties on id);
//! 6. `thrust::remove_if` compacts the forward arcs (exactly m̂ survive);
//! 7. unzip into structure-of-arrays;
//! 8. rebuild the node array over the compacted arcs.
//!
//! When the device cannot hold the doubled edge array *plus* the sort's
//! double buffer, [`preprocess_auto`] falls back to §III-D6: the host
//! computes degrees and drops backward arcs (halving what the device must
//! hold) and only sorting/unzipping/node-building run on the device. The
//! host part is charged with a deterministic cost model (a single-threaded
//! streaming pass at [`HOST_PREPROCESS_NS_PER_ARC`]) rather than a live
//! stopwatch, so † rows — like all simulated times — are bit-reproducible
//! across runs and hosts; the paper's observation survives either way (the
//! fallback "runs slower than on the GPU but halves the input size").
//!
//! # Degree-descending reordering (TRUST-style)
//!
//! Both paths accept a `reorder` flag that inserts a relabeling pass
//! *before* orientation: every vertex is ranked by (descending undirected
//! degree, ascending id) and the arcs are rewritten in terms of the ranks.
//! Degrees are invariant under a relabeling and the rank order breaks ties
//! exactly like the original ids, so the oriented graph is the isomorphic
//! image of the unreordered one — triangle counts cannot change, only the
//! memory layout does: hub adjacency lists move to the front of the
//! neighbour array, concentrating the hot probe range for the cache
//! hierarchy. The inverse permutation (`relabel[new] = old`) rides along in
//! [`Preprocessed::relabel`] so any per-vertex output can be mapped back to
//! the input labels, keeping reported results identical to unreordered
//! runs. The rank sort reuses the same on-device `sort_u64` radix machinery
//! as the arc sort and every pass is charged through the cycle model.

use tc_graph::EdgeArray;
use tc_simt::primitives::{
    charge_transform_pass, compact_marked_u64, group_boundaries, mark_if_u64, reduce_map_max_u64,
    sort_u64, unzip_u64,
};
use tc_simt::{Device, DeviceBuffer, SimtError};

use crate::error::CoreError;

/// Output of preprocessing: everything the counting kernel needs.
#[derive(Clone, Copy, Debug)]
pub struct Preprocessed {
    /// Concatenated oriented adjacency lists (second endpoints), length `m`.
    pub nbr: DeviceBuffer<u32>,
    /// First endpoints, length `m` (the kernel reads `owner[i]` as `u`).
    pub owner: DeviceBuffer<u32>,
    /// Node array, length `n + 1`.
    pub node: DeviceBuffer<u32>,
    /// The packed arcs, retained only when the AoS kernel layout is wanted
    /// (§III-D1 ablation); `None` in the production SoA configuration.
    pub arcs_aos: Option<DeviceBuffer<u64>>,
    /// Oriented arc count (= number of undirected edges).
    pub m: usize,
    /// Vertex count.
    pub n: usize,
    /// Which path ran.
    pub used_cpu_fallback: bool,
    /// Host seconds spent when the fallback ran (0 otherwise).
    pub host_seconds: f64,
    /// Inverse permutation of the degree-descending relabeling
    /// (`relabel[new] = original`), kept on device so per-vertex outputs can
    /// be mapped back to input labels. `None` when reordering was off.
    pub relabel: Option<DeviceBuffer<u32>>,
}

/// Conservative device-byte estimate for the full-GPU path: the doubled
/// packed arcs plus the radix double buffer (peak at step 3).
pub fn full_path_peak_bytes(g: &EdgeArray) -> u64 {
    let arcs = g.num_arcs() as u64;
    2 * arcs * 8
}

/// Peak for the fallback path: only the oriented half is ever resident.
pub fn fallback_path_peak_bytes(g: &EdgeArray) -> u64 {
    let m = g.num_edges() as u64;
    2 * m * 8
}

/// Extra device bytes the reorder pass needs: the degree array, the rank
/// keys, the keys' radix double buffer, the rank scatter target, and the
/// inverse permutation that survives preprocessing.
pub fn reorder_extra_bytes(g: &EdgeArray) -> u64 {
    let n = g.num_nodes() as u64;
    n * 4 + n * 8 + n * 8 + n * 4 + n * 4
}

/// Run preprocessing, choosing the path by capacity like the paper: full
/// GPU when it fits, CPU fallback when only that fits, error otherwise.
/// `reserve_bytes` is capacity the caller needs *afterwards* (the kernel's
/// result array), held out of the plan. `reorder` inserts the
/// degree-descending relabeling pass (see the module docs).
pub fn preprocess_auto(
    dev: &mut Device,
    g: &EdgeArray,
    keep_aos: bool,
    reserve_bytes: u64,
    reorder: bool,
) -> Result<Preprocessed, CoreError> {
    let extra = if reorder { reorder_extra_bytes(g) } else { 0 };
    let full = full_path_peak_bytes(g) + node_bytes(g) + reserve_bytes + extra;
    let fallback = fallback_path_peak_bytes(g) + node_bytes(g) + reserve_bytes + extra;
    if dev.fits(full) {
        Ok(preprocess_full_gpu(dev, g, keep_aos, reorder)?)
    } else if dev.fits(fallback) {
        Ok(preprocess_cpu_fallback(dev, g, keep_aos, reorder)?)
    } else {
        Err(CoreError::GraphTooLargeForDevice {
            required_bytes: fallback,
            capacity_bytes: dev.mem_capacity(),
        })
    }
}

fn node_bytes(g: &EdgeArray) -> u64 {
    (g.num_nodes() as u64 + 1) * 4
}

/// The eight-step full-GPU path. Each step runs inside a named profiler
/// phase (`push_phase`/`pop_phase`) so `--profile` reports and nested
/// traces show the §III-B breakdown. With `reorder`, step 2b relabels the
/// arcs by degree-descending rank before the sort.
pub fn preprocess_full_gpu(
    dev: &mut Device,
    g: &EdgeArray,
    keep_aos: bool,
    reorder: bool,
) -> Result<Preprocessed, SimtError> {
    // Step 1: copy. Arcs packed (u << 32) | v so u64 order = (u, v) lex.
    let packed: Vec<u64> = g.arcs().iter().map(|e| e.as_u64_first_major()).collect();
    let arcs = dev.with_phase("1-copy-edges", |d| d.htod_copy(&packed))?;
    let total = packed.len();
    drop(packed);

    // Step 2: number of vertices.
    let n = if total == 0 {
        0
    } else {
        dev.with_phase("2-count-vertices", |d| {
            reduce_map_max_u64(d, &arcs, |e| (e >> 32).max(e & 0xFFFF_FFFF))
        }) as usize
            + 1
    };

    // Step 2b (reorder variant): degree-descending relabeling of the
    // packed arcs, ranks derived on device from the same radix sort.
    let relabel = if reorder && n > 0 {
        let degrees = g.degrees();
        Some(dev.with_phase("2b-reorder", |d| reorder_pass(d, &degrees, &arcs, total))?)
    } else {
        None
    };

    // Step 3: sort (allocates the radix double buffer — the peak).
    dev.with_phase("3-sort-edges", |d| sort_u64(d, &arcs, total))?;

    // Step 4: node array over the *doubled* arcs.
    let node_full = dev.with_phase("4-node-array", |d| {
        group_boundaries(d, &arcs, total, n, |e| (e >> 32) as u32)
    })?;

    // Step 5: mark backward arcs. Degrees come from the node array.
    let node_host = dev.peek(&node_full);
    let degree = move |v: u32| node_host[v as usize + 1] - node_host[v as usize];
    let marks = dev.with_phase("5-mark-backward", |d| {
        mark_if_u64(d, &arcs, total, |e| {
            let u = (e >> 32) as u32;
            let v = e as u32;
            let (du, dv) = (degree(u), degree(v));
            // Backward: from the ≻ endpoint to the ≺ endpoint.
            (dv, v) < (du, u)
        })
    });

    // Step 6: compact the forward arcs.
    let m = dev.with_phase("6-remove-backward", |d| {
        compact_marked_u64(d, &arcs, total, &marks)
    });
    dev.free(node_full)?;
    debug_assert_eq!(m, g.num_edges());

    finish(dev, arcs, m, n, keep_aos, false, 0.0, relabel)
}

/// Rank vertices by (descending degree, ascending id): the host mirror of
/// the device rank sort. Returns (`rank[old] = new`, `old_of_new[new] =
/// old`).
pub(crate) fn degree_ranks(degrees: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = degrees.len();
    // Key (u32::MAX - deg) << 32 | v: ascending u64 order is exactly
    // (descending degree, ascending id), ready for the radix machinery.
    let mut keys: Vec<u64> = degrees
        .iter()
        .enumerate()
        .map(|(v, &d)| (((u32::MAX - d) as u64) << 32) | v as u64)
        .collect();
    keys.sort_unstable();
    let mut rank = vec![0u32; n];
    let mut old_of_new = vec![0u32; n];
    for (new, &key) in keys.iter().enumerate() {
        let old = (key & 0xFFFF_FFFF) as u32;
        rank[old as usize] = new as u32;
        old_of_new[new] = old;
    }
    (rank, old_of_new)
}

/// The on-device reorder pass (step 2b): degree histogram, rank-key sort
/// via `sort_u64`, rank scatter, and an in-place gather rewrite of the
/// packed arcs. Every pass is charged through the cycle model; the
/// functional result is mirrored on the host (same split as the other
/// primitives). Returns the inverse permutation buffer, which outlives
/// preprocessing as [`Preprocessed::relabel`].
fn reorder_pass(
    dev: &mut Device,
    degrees: &[u32],
    arcs: &DeviceBuffer<u64>,
    total: usize,
) -> Result<DeviceBuffer<u32>, SimtError> {
    let n = degrees.len();
    let (nb, ab) = (n as u64, total as u64);

    // Degree histogram over the doubled arcs (one atomic add per arc).
    let deg_buf = dev.alloc::<u32>(n)?;
    dev.poke(&deg_buf, degrees);
    charge_transform_pass(dev, "reorder: degree histogram", ab * 8, nb * 4);

    // Rank keys, sorted with the same radix primitive as the arc sort.
    let keys: Vec<u64> = degrees
        .iter()
        .enumerate()
        .map(|(v, &d)| (((u32::MAX - d) as u64) << 32) | v as u64)
        .collect();
    let key_buf = dev.alloc::<u64>(n)?;
    dev.poke(&key_buf, &keys);
    charge_transform_pass(dev, "reorder: rank keys", nb * 4, nb * 8);
    sort_u64(dev, &key_buf, n)?;

    // Scatter ranks (rank[old] = position) and the inverse permutation.
    let (rank, old_of_new) = degree_ranks(degrees);
    let rank_buf = dev.alloc::<u32>(n)?;
    dev.poke(&rank_buf, &rank);
    let relabel = dev.alloc::<u32>(n)?;
    dev.poke(&relabel, &old_of_new);
    charge_transform_pass(dev, "reorder: rank scatter", nb * 8, nb * 8);

    // Rewrite the packed arcs in place: two gathered 4-byte rank lookups
    // per arc (modeled as one extra arc-sized read stream) plus the
    // streaming read and write of the arc array itself.
    let relabeled: Vec<u64> = dev
        .peek(arcs)
        .iter()
        .map(|&e| {
            let (u, v) = ((e >> 32) as usize, (e & 0xFFFF_FFFF) as usize);
            ((rank[u] as u64) << 32) | rank[v] as u64
        })
        .collect();
    dev.poke(arcs, &relabeled);
    charge_transform_pass(dev, "reorder: relabel arcs", ab * 8 + ab * 8, ab * 8);

    dev.free(deg_buf)?;
    dev.free(key_buf)?;
    dev.free(rank_buf)?;
    Ok(relabel)
}

/// Modeled cost of the host's share of the §III-D6 fallback: the degree
/// histogram plus the backward-arc filter are two single-threaded streaming
/// passes over the arc array; ~3 ns per arc per pass matches a mid-2010s
/// Xeon and keeps the † rows' penalty in the paper's proportions.
pub const HOST_PREPROCESS_NS_PER_ARC: f64 = 6.0;

/// §III-D6: degrees and orientation on the host, the rest on the device.
/// With `reorder`, the relabeling also runs on the host (one extra
/// streaming pass in the charge model) and only the inverse permutation is
/// uploaded; the orientation predicate compares relabeled ids so the
/// output matches the full-GPU reorder path exactly.
pub fn preprocess_cpu_fallback(
    dev: &mut Device,
    g: &EdgeArray,
    keep_aos: bool,
    reorder: bool,
) -> Result<Preprocessed, SimtError> {
    let degrees = g.degrees();
    let n = g.num_nodes();
    let ranks = if reorder && n > 0 {
        Some(degree_ranks(&degrees))
    } else {
        None
    };
    let oriented: Vec<u64> = g
        .arcs()
        .iter()
        .filter_map(|e| {
            let (du, dv) = (degrees[e.u as usize], degrees[e.v as usize]);
            // Degrees are invariant under the relabeling, so only the
            // tie-breaking ids change — same arcs survive either way.
            let (lu, lv) = match &ranks {
                Some((rank, _)) => (rank[e.u as usize], rank[e.v as usize]),
                None => (e.u, e.v),
            };
            ((du, lu) < (dv, lv)).then_some(((lu as u64) << 32) | lv as u64)
        })
        .collect();
    let m = oriented.len();
    let host_passes = if reorder { 3.0 } else { 2.0 };
    let host_seconds =
        g.num_arcs() as f64 * (HOST_PREPROCESS_NS_PER_ARC / 2.0) * host_passes * 1e-9;

    let relabel = match &ranks {
        Some((_, old_of_new)) => Some(dev.with_phase("2b-reorder", |d| d.htod_copy(old_of_new))?),
        None => None,
    };
    let arcs = dev.with_phase("1-copy-edges", |d| d.htod_copy(&oriented))?;
    drop(oriented);
    dev.with_phase("3-sort-edges", |d| sort_u64(d, &arcs, m))?;
    finish(dev, arcs, m, n, keep_aos, true, host_seconds, relabel)
}

/// Steps 7–8, shared by both paths: unzip and rebuild the node array.
#[allow(clippy::too_many_arguments)]
fn finish(
    dev: &mut Device,
    arcs: DeviceBuffer<u64>,
    m: usize,
    n: usize,
    keep_aos: bool,
    used_cpu_fallback: bool,
    host_seconds: f64,
    relabel: Option<DeviceBuffer<u32>>,
) -> Result<Preprocessed, SimtError> {
    let (nbr, owner) = dev.with_phase("7-unzip", |d| unzip_u64(d, &arcs, m))?;
    let node = dev.with_phase("8-node-array", |d| {
        group_boundaries(d, &arcs, m, n, |e| (e >> 32) as u32)
    })?;
    let arcs_aos = if keep_aos {
        Some(arcs.slice(0, m))
    } else {
        dev.free(arcs)?;
        None
    };
    Ok(Preprocessed {
        nbr,
        owner,
        node,
        arcs_aos,
        m,
        n,
        used_cpu_fallback,
        host_seconds,
        relabel,
    })
}

/// Free every buffer of a [`Preprocessed`] (the paper's measurement window
/// ends "right after … the GPU memory was freed").
pub fn free_preprocessed(dev: &mut Device, p: &Preprocessed) -> Result<(), SimtError> {
    dev.free(p.nbr)?;
    dev.free(p.owner)?;
    dev.free(p.node)?;
    // `arcs_aos` is a slice of the original allocation; freeing by base
    // address works because slices at offset 0 share it.
    if let Some(aos) = p.arcs_aos {
        dev.free(aos)?;
    }
    if let Some(relabel) = p.relabel {
        dev.free(relabel)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::Orientation;
    use tc_simt::DeviceConfig;

    fn device() -> Device {
        let mut d = Device::new(DeviceConfig::gtx_980().with_unlimited_memory());
        d.preinit_context();
        d.reset_clock();
        d
    }

    fn diamond() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    /// The device pipeline must produce exactly the CPU reference
    /// orientation: same node array, same concatenated lists.
    fn assert_matches_reference(dev: &Device, p: &Preprocessed, g: &EdgeArray) {
        let reference = Orientation::forward(g).unwrap();
        assert_eq!(p.m, g.num_edges());
        assert_eq!(p.n, g.num_nodes());
        let node = dev.peek(&p.node);
        let nbr = dev.peek(&p.nbr);
        let owner = dev.peek(&p.owner);
        let ref_offsets: Vec<u32> = reference.csr.offsets().to_vec();
        assert_eq!(node, ref_offsets, "node array mismatch");
        assert_eq!(nbr, reference.csr.targets(), "neighbour array mismatch");
        // owner[i] must be the list owner for every i.
        for v in 0..p.n as u32 {
            for i in node[v as usize]..node[v as usize + 1] {
                assert_eq!(owner[i as usize], v);
            }
        }
    }

    #[test]
    fn full_gpu_path_matches_cpu_reference() {
        let g = diamond();
        let mut dev = device();
        let p = preprocess_full_gpu(&mut dev, &g, false, false).unwrap();
        assert!(!p.used_cpu_fallback);
        assert_matches_reference(&dev, &p, &g);
    }

    #[test]
    fn fallback_path_matches_cpu_reference() {
        let g = diamond();
        let mut dev = device();
        let p = preprocess_cpu_fallback(&mut dev, &g, false, false).unwrap();
        assert!(p.used_cpu_fallback);
        assert_matches_reference(&dev, &p, &g);
    }

    #[test]
    fn paths_agree_on_a_random_graph() {
        let mut pairs = Vec::new();
        // Deterministic pseudo-random pair soup.
        let mut x = 12345u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 97;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % 97;
            pairs.push((a as u32, b as u32));
        }
        let g = EdgeArray::from_undirected_pairs(pairs);
        let mut d1 = device();
        let mut d2 = device();
        let p1 = preprocess_full_gpu(&mut d1, &g, false, false).unwrap();
        let p2 = preprocess_cpu_fallback(&mut d2, &g, false, false).unwrap();
        assert_eq!(d1.peek(&p1.node), d2.peek(&p2.node));
        assert_eq!(d1.peek(&p1.nbr), d2.peek(&p2.nbr));
        assert_matches_reference(&d1, &p1, &g);
    }

    #[test]
    fn auto_uses_full_path_when_roomy() {
        let g = diamond();
        let mut dev = device();
        let p = preprocess_auto(&mut dev, &g, false, 0, false).unwrap();
        assert!(!p.used_cpu_fallback);
    }

    #[test]
    fn auto_falls_back_when_tight() {
        let g = diamond();
        // Capacity: fits the fallback (2m·8 + node) but not the full path
        // (2·arcs·8 + node). m = 5 arcs -> fallback ≈ 80 + 20, full ≈ 160+.
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(140);
        let mut dev = Device::new(cfg);
        dev.preinit_context();
        let p = preprocess_auto(&mut dev, &g, false, 0, false).unwrap();
        assert!(p.used_cpu_fallback);
        assert!(p.host_seconds >= 0.0);
        assert_matches_reference(&dev, &p, &g);
    }

    #[test]
    fn auto_errors_when_nothing_fits() {
        let g = diamond();
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(40);
        let mut dev = Device::new(cfg);
        dev.preinit_context();
        match preprocess_auto(&mut dev, &g, false, 0, false) {
            Err(CoreError::GraphTooLargeForDevice { .. }) => {}
            other => panic!("expected too-large error, got {other:?}"),
        }
    }

    #[test]
    fn keep_aos_retains_packed_arcs() {
        let g = diamond();
        let mut dev = device();
        let p = preprocess_full_gpu(&mut dev, &g, true, false).unwrap();
        let aos = p.arcs_aos.expect("requested AoS retention");
        let packed = dev.peek(&aos);
        let nbr = dev.peek(&p.nbr);
        let owner = dev.peek(&p.owner);
        for i in 0..p.m {
            assert_eq!(packed[i], ((owner[i] as u64) << 32) | nbr[i] as u64);
        }
    }

    #[test]
    fn free_returns_all_memory() {
        let g = diamond();
        let mut dev = device();
        let before = dev.mem_used();
        let p = preprocess_full_gpu(&mut dev, &g, false, false).unwrap();
        assert!(dev.mem_used() > before);
        free_preprocessed(&mut dev, &p).unwrap();
        assert_eq!(dev.mem_used(), before);
    }

    #[test]
    fn empty_graph_preprocesses_cleanly() {
        let g = EdgeArray::default();
        let mut dev = device();
        let p = preprocess_full_gpu(&mut dev, &g, false, false).unwrap();
        assert_eq!(p.m, 0);
        assert_eq!(p.n, 0);
        assert_eq!(dev.peek(&p.node), vec![0]);
    }

    fn random_graph(nodes: u64, pairs: usize, seed: u64) -> EdgeArray {
        let mut soup = Vec::new();
        let mut x = seed;
        for _ in 0..pairs {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % nodes;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % nodes;
            soup.push((a as u32, b as u32));
        }
        EdgeArray::from_undirected_pairs(soup)
    }

    #[test]
    fn reorder_ranks_vertices_by_descending_degree() {
        let g = random_graph(61, 300, 99);
        let degrees = g.degrees();
        let mut dev = device();
        let p = preprocess_full_gpu(&mut dev, &g, false, true).unwrap();
        let relabel = dev.peek(&p.relabel.expect("reorder keeps the inverse permutation"));
        assert_eq!(relabel.len(), g.num_nodes());
        // relabel[new] walks vertices in (descending degree, ascending id)
        // order and visits each exactly once.
        for w in relabel.windows(2) {
            let (da, db) = (degrees[w[0] as usize], degrees[w[1] as usize]);
            assert!((da > db) || (da == db && w[0] < w[1]));
        }
        let mut seen = vec![false; relabel.len()];
        for &old in &relabel {
            assert!(!std::mem::replace(&mut seen[old as usize], true));
        }
    }

    /// Reordering must be a pure relabeling: mapping the reordered
    /// adjacency structure back through the inverse permutation recovers
    /// exactly the unreordered oriented graph, arc for arc.
    #[test]
    fn reorder_is_a_pure_relabeling() {
        let g = random_graph(97, 400, 12345);
        let mut plain_dev = device();
        let plain = preprocess_full_gpu(&mut plain_dev, &g, false, false).unwrap();
        let mut dev = device();
        let p = preprocess_full_gpu(&mut dev, &g, false, true).unwrap();
        assert_eq!(p.m, plain.m);
        assert_eq!(p.n, plain.n);
        let relabel = dev.peek(&p.relabel.unwrap());
        let node = dev.peek(&p.node);
        let nbr = dev.peek(&p.nbr);
        let owner = dev.peek(&p.owner);
        let mut mapped: Vec<(u32, u32)> = Vec::with_capacity(p.m);
        for i in 0..p.m {
            assert!(
                node[owner[i] as usize] <= i as u32 && (i as u32) < node[owner[i] as usize + 1]
            );
            mapped.push((relabel[owner[i] as usize], relabel[nbr[i] as usize]));
        }
        mapped.sort_unstable();
        let plain_nbr = plain_dev.peek(&plain.nbr);
        let plain_owner = plain_dev.peek(&plain.owner);
        let mut reference: Vec<(u32, u32)> = plain_owner
            .iter()
            .zip(&plain_nbr)
            .map(|(&u, &v)| (u, v))
            .collect();
        reference.sort_unstable();
        assert_eq!(mapped, reference);
    }

    #[test]
    fn reorder_paths_agree() {
        let g = random_graph(97, 400, 777);
        let mut d1 = device();
        let mut d2 = device();
        let p1 = preprocess_full_gpu(&mut d1, &g, false, true).unwrap();
        let p2 = preprocess_cpu_fallback(&mut d2, &g, false, true).unwrap();
        assert_eq!(d1.peek(&p1.node), d2.peek(&p2.node));
        assert_eq!(d1.peek(&p1.nbr), d2.peek(&p2.nbr));
        assert_eq!(d1.peek(&p1.relabel.unwrap()), d2.peek(&p2.relabel.unwrap()));
    }

    #[test]
    fn reorder_frees_all_memory_and_handles_empty_graphs() {
        let g = diamond();
        let mut dev = device();
        let before = dev.mem_used();
        let p = preprocess_full_gpu(&mut dev, &g, false, true).unwrap();
        assert!(p.relabel.is_some());
        free_preprocessed(&mut dev, &p).unwrap();
        assert_eq!(dev.mem_used(), before);

        let empty = EdgeArray::default();
        let p = preprocess_full_gpu(&mut dev, &empty, false, true).unwrap();
        assert!(p.relabel.is_none());
        assert_eq!(p.m, 0);
    }
}
