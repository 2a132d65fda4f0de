//! Basic graph statistics (the "Nodes / Edges" columns of Table I, degree
//! distributions, wedge counts for the transitivity ratio).

use crate::EdgeArray;

/// Summary statistics of a graph, as reported in Table I plus a few extras
/// that drive the evaluation narrative (degree skew explains Table II's
/// cache-hit spread; the wedge count feeds the transitivity ratio).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    pub num_nodes: usize,
    pub num_edges: usize,
    pub max_degree: u32,
    pub avg_degree: f64,
    /// Number of paths of length two ("wedges"): Σ_v d(v)·(d(v)−1)/2.
    pub wedges: u64,
}

impl GraphStats {
    pub fn from_edge_array(g: &EdgeArray) -> Self {
        let degrees = g.degrees();
        Self::from_degrees(&degrees, g.num_edges())
    }

    fn from_degrees(degrees: &[u32], num_edges: usize) -> Self {
        let num_nodes = degrees.len();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let wedges: u64 = tc_par::sum_by_u64(degrees.len(), |i| {
            let d = degrees[i] as u64;
            d * d.saturating_sub(1) / 2
        });
        let avg_degree = if num_nodes == 0 {
            0.0
        } else {
            2.0 * num_edges as f64 / num_nodes as f64
        };
        GraphStats {
            num_nodes,
            num_edges,
            max_degree,
            avg_degree,
            wedges,
        }
    }
}

/// Degree histogram: `hist[d]` = number of vertices with degree `d`.
pub fn degree_histogram(g: &EdgeArray) -> Vec<usize> {
    let degrees = g.degrees();
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0usize; max + 1];
    for d in degrees {
        hist[d as usize] += 1;
    }
    hist
}

/// Coefficient of variation of the degree distribution — the "deviation from
/// the average degree" §II-A says separates edge-iterator-friendly graphs
/// from forward-friendly ones.
pub fn degree_cv(g: &EdgeArray) -> f64 {
    let degrees = g.degrees();
    if degrees.is_empty() {
        return 0.0;
    }
    let n = degrees.len() as f64;
    let mean = degrees.iter().map(|&d| d as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = degrees
        .iter()
        .map(|&d| {
            let diff = d as f64 - mean;
            diff * diff
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn stats_of_small_graph() {
        let g = triangle_plus_tail();
        let s = GraphStats::from_edge_array(&g);
        assert_eq!(s.num_nodes, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 3);
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
        // wedges: d = [2,2,3,1] -> 1 + 1 + 3 + 0 = 5
        assert_eq!(s.wedges, 5);
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let g = triangle_plus_tail();
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), g.num_nodes());
        assert_eq!(hist[3], 1);
        assert_eq!(hist[2], 2);
        assert_eq!(hist[1], 1);
    }

    #[test]
    fn regular_graph_has_zero_cv() {
        // 4-cycle: every vertex has degree 2.
        let g = EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(degree_cv(&g) < 1e-12);
    }

    #[test]
    fn star_has_high_cv() {
        let g = EdgeArray::from_undirected_pairs((1..=20u32).map(|v| (0, v)));
        assert!(degree_cv(&g) > 1.5);
    }

    #[test]
    fn empty_graph_stats() {
        let s = GraphStats::from_edge_array(&EdgeArray::default());
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.wedges, 0);
        assert_eq!(degree_cv(&EdgeArray::default()), 0.0);
    }
}
