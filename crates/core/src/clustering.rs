//! Clustering coefficients and the transitivity ratio — the applications
//! that motivate triangle counting (§I).
//!
//! Per-vertex triangle counts come from a *listing* variant of the forward
//! algorithm: for every oriented edge `(u, v)` and every common oriented
//! neighbour `w`, the triangle `{u, v, w}` is found exactly once and
//! credited to all three corners.

use tc_graph::{EdgeArray, GraphError, GraphStats, Orientation};

/// Number of triangles through each vertex (`Σ = 3 × total triangles`).
pub fn per_vertex_triangles(g: &EdgeArray) -> Result<Vec<u64>, GraphError> {
    let orientation = Orientation::forward(g)?;
    let csr = &orientation.csr;
    let n = csr.num_nodes();
    // Parallel over chunks of list owners, each worker accumulating into a
    // local vector; merged at the end in chunk order (atomic-free).
    let owners: Vec<u32> = (0..n as u32).collect();
    let locals = tc_par::map_chunks(&owners, 4096, |_, chunk| {
        let mut acc = vec![0u64; n];
        for &u in chunk {
            let adj_u = csr.neighbors(u);
            for &v in adj_u {
                let adj_v = csr.neighbors(v);
                let (mut i, mut j) = (0, 0);
                while i < adj_u.len() && j < adj_v.len() {
                    match adj_u[i].cmp(&adj_v[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let w = adj_u[i];
                            acc[u as usize] += 1;
                            acc[v as usize] += 1;
                            acc[w as usize] += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        acc
    });
    let mut total = vec![0u64; n];
    for local in locals {
        for (t, l) in total.iter_mut().zip(local) {
            *t += l;
        }
    }
    Ok(total)
}

/// Local clustering coefficient of every vertex:
/// `c(v) = 2·t(v) / (d(v)·(d(v)−1))`, 0 for degree < 2.
pub fn local_clustering(g: &EdgeArray) -> Result<Vec<f64>, GraphError> {
    let t = per_vertex_triangles(g)?;
    let deg = g.degrees();
    Ok(t.iter()
        .zip(&deg)
        .map(|(&tv, &d)| {
            if d < 2 {
                0.0
            } else {
                2.0 * tv as f64 / (d as f64 * (d as f64 - 1.0))
            }
        })
        .collect())
}

/// Watts–Strogatz average clustering coefficient.
pub fn average_clustering(g: &EdgeArray) -> Result<f64, GraphError> {
    let c = local_clustering(g)?;
    if c.is_empty() {
        return Ok(0.0);
    }
    Ok(c.iter().sum::<f64>() / c.len() as f64)
}

/// The transitivity ratio (global clustering coefficient):
/// `3 × triangles / wedges`.
pub fn transitivity(g: &EdgeArray) -> Result<f64, GraphError> {
    let stats = GraphStats::from_edge_array(g);
    if stats.wedges == 0 {
        return Ok(0.0);
    }
    let t = per_vertex_triangles(g)?;
    let triangles: u64 = t.iter().sum::<u64>() / 3;
    Ok(3.0 * triangles as f64 / stats.wedges as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{count_brute_force, per_vertex_brute_force};

    fn diamond() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn per_vertex_counts_match_brute_force() {
        let g = diamond();
        assert_eq!(
            per_vertex_triangles(&g).unwrap(),
            per_vertex_brute_force(&g)
        );
    }

    #[test]
    fn per_vertex_sums_to_three_times_total() {
        let g = diamond();
        let t = per_vertex_triangles(&g).unwrap();
        assert_eq!(t.iter().sum::<u64>(), 3 * count_brute_force(&g));
    }

    #[test]
    fn complete_graph_is_fully_clustered() {
        let mut pairs = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                pairs.push((a, b));
            }
        }
        let g = EdgeArray::from_undirected_pairs(pairs);
        let c = local_clustering(&g).unwrap();
        for v in c {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!((average_clustering(&g).unwrap() - 1.0).abs() < 1e-12);
        assert!((transitivity(&g).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_free_graph_has_zero_everything() {
        let g = EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(per_vertex_triangles(&g).unwrap().iter().all(|&t| t == 0));
        assert_eq!(average_clustering(&g).unwrap(), 0.0);
        assert_eq!(transitivity(&g).unwrap(), 0.0);
    }

    #[test]
    fn diamond_coefficients_by_hand() {
        // Degrees: 0:2, 1:3, 2:3, 3:2. Triangles through: 0:1, 1:2, 2:2, 3:1.
        let g = diamond();
        let c = local_clustering(&g).unwrap();
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[3] - 1.0).abs() < 1e-12);
        // Wedges: 1 + 3 + 3 + 1 = 8; transitivity = 3·2/8.
        assert!((transitivity(&g).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = EdgeArray::default();
        assert!(per_vertex_triangles(&g).unwrap().is_empty());
        assert_eq!(average_clustering(&g).unwrap(), 0.0);
        assert_eq!(transitivity(&g).unwrap(), 0.0);
    }
}
