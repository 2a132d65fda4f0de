//! Conversions and relabelings between graph representations.
//!
//! The representation-specific conversions live on the types themselves
//! ([`crate::AdjacencyList::to_edge_array`], [`crate::AdjacencyList::from_edge_array`],
//! [`crate::Csr::from_edge_array`]); this module adds vertex-relabeling utilities
//! used by tests (triangle counts are isomorphism-invariant) and by the
//! harness (arc shuffling, since the paper assumes "no particular order of
//! the edges").

use crate::{Edge, EdgeArray, VertexId};

/// Apply a vertex relabeling: arc `(u, v)` becomes `(perm[u], perm[v])`.
/// `perm` must be a permutation of `0..g.num_nodes()`.
pub fn relabel(g: &EdgeArray, perm: &[VertexId]) -> EdgeArray {
    assert!(perm.len() >= g.num_nodes(), "permutation too short");
    EdgeArray::from_arcs_unchecked(
        g.arcs()
            .iter()
            .map(|e| Edge::new(perm[e.u as usize], perm[e.v as usize]))
            .collect(),
    )
}

/// Deterministically shuffle arc order with a Fisher–Yates pass driven by a
/// SplitMix64 stream. Only the *order* of arcs changes; the graph is
/// unchanged (the paper's input contract promises nothing about arc order).
pub fn shuffle_arcs(g: &mut EdgeArray, seed: u64) {
    let arcs = g.arcs_mut();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..arcs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        arcs.swap(i, j);
    }
}

/// Produce a random vertex permutation of `0..n` (Fisher–Yates, SplitMix64).
pub fn random_permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as u32).collect();
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..perm.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 0), (2, 4)])
    }

    fn arc_multiset(g: &EdgeArray) -> Vec<u64> {
        let mut v: Vec<u64> = g.arcs().iter().map(|e| e.as_u64_first_major()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn relabel_identity_is_noop() {
        let g = sample();
        let n = g.num_nodes();
        let id: Vec<u32> = (0..n as u32).collect();
        assert_eq!(arc_multiset(&relabel(&g, &id)), arc_multiset(&g));
    }

    #[test]
    fn relabel_preserves_validity() {
        let g = sample();
        let perm = random_permutation(g.num_nodes(), 42);
        let h = relabel(&g, &perm);
        h.validate().unwrap();
        assert_eq!(h.num_edges(), g.num_edges());
    }

    #[test]
    fn shuffle_preserves_multiset_and_is_deterministic() {
        let mut a = sample();
        let mut b = sample();
        let before = arc_multiset(&a);
        shuffle_arcs(&mut a, 7);
        shuffle_arcs(&mut b, 7);
        assert_eq!(arc_multiset(&a), before);
        assert_eq!(a.arcs(), b.arcs());
        let mut c = sample();
        shuffle_arcs(&mut c, 8);
        // Different seed almost surely gives a different order.
        assert_ne!(a.arcs(), c.arcs());
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let p = random_permutation(100, 3);
        let mut sorted = p;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
