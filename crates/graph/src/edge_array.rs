//! The edge-array input format (paper §III-A).
//!
//! An [`EdgeArray`] is an array of structures, each holding the two endpoint
//! identifiers of a directed arc. The paper's invariants:
//!
//! * no self-loops and no multi-edges;
//! * every undirected edge appears exactly twice, once in each direction;
//! * the arcs are in **no particular order** (preprocessing sorts them).
//!
//! [`EdgeSoA`] is the same data "unzipped" into a structure of arrays — the
//! layout the counting kernel prefers (§III-D1, 13–32 % faster).

use crate::{GraphError, VertexId};

/// A directed arc `u -> v`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Edge {
    pub u: VertexId,
    pub v: VertexId,
}

impl Edge {
    #[inline]
    pub fn new(u: VertexId, v: VertexId) -> Self {
        Edge { u, v }
    }

    /// The reverse arc `v -> u`.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge {
            u: self.v,
            v: self.u,
        }
    }

    /// Pack into a 64-bit key with the **first** vertex in the high half, so
    /// `u64` order equals `(u, v)` lexicographic order. This is the ordering
    /// preprocessing step 3 wants.
    #[inline]
    pub fn as_u64_first_major(self) -> u64 {
        ((self.u as u64) << 32) | self.v as u64
    }

    /// Unpack a key produced by [`Edge::as_u64_first_major`].
    #[inline]
    pub fn from_u64_first_major(key: u64) -> Self {
        Edge {
            u: (key >> 32) as u32,
            v: key as u32,
        }
    }
}

/// Array-of-structures edge array: the canonical input format.
#[derive(Clone, Default, Debug)]
pub struct EdgeArray {
    edges: Vec<Edge>,
}

impl EdgeArray {
    /// Wrap a raw arc list without validation. The caller asserts the paper's
    /// invariants hold; use [`EdgeArray::validate`] to check them.
    pub fn from_arcs_unchecked(edges: Vec<Edge>) -> Self {
        EdgeArray { edges }
    }

    /// Build a valid edge array from a list of **undirected** endpoint pairs.
    ///
    /// Self-loops are dropped and duplicate undirected edges are collapsed;
    /// every surviving edge is emitted in both directions. This is the
    /// "fast and simple single-pass" style conversion the paper assumes is
    /// available from upstream data sources.
    ///
    /// ```
    /// use tc_graph::EdgeArray;
    /// let g = EdgeArray::from_undirected_pairs([(0, 1), (1, 0), (2, 2), (1, 2)]);
    /// assert_eq!(g.num_edges(), 2);   // duplicate collapsed, self-loop dropped
    /// assert_eq!(g.num_arcs(), 4);    // each edge stored in both directions
    /// assert!(g.validate().is_ok());
    /// ```
    pub fn from_undirected_pairs(pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let mut canon: Vec<u64> = pairs
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                ((lo as u64) << 32) | hi as u64
            })
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let mut edges = Vec::with_capacity(canon.len() * 2);
        for key in canon {
            let lo = (key >> 32) as u32;
            let hi = key as u32;
            edges.push(Edge::new(lo, hi));
            edges.push(Edge::new(hi, lo));
        }
        EdgeArray { edges }
    }

    /// Number of directed arcs (`m` in the paper; twice the number of
    /// undirected edges for a valid edge array).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Number of vertices, computed as `max id + 1` exactly like
    /// preprocessing step 2 (a max-reduction over both endpoints). An empty
    /// graph has zero vertices.
    pub fn num_nodes(&self) -> usize {
        self.edges
            .iter()
            .map(|e| e.u.max(e.v))
            .max()
            .map_or(0, |m| m as usize + 1)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    #[inline]
    pub fn arcs(&self) -> &[Edge] {
        &self.edges
    }

    #[inline]
    pub fn arcs_mut(&mut self) -> &mut [Edge] {
        &mut self.edges
    }

    pub fn into_arcs(self) -> Vec<Edge> {
        self.edges
    }

    /// Iterate over undirected edges, yielding each once with `u < v`.
    pub fn undirected_iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.iter().filter(|e| e.u < e.v).map(|e| (e.u, e.v))
    }

    /// Check the paper's §III-A invariants: no self-loops, no duplicate arcs,
    /// every arc paired with its reverse.
    pub fn validate(&self) -> Result<(), GraphError> {
        for e in &self.edges {
            if e.u == e.v {
                return Err(GraphError::SelfLoop { vertex: e.u });
            }
        }
        let mut keys: Vec<u64> = self.edges.iter().map(|e| e.as_u64_first_major()).collect();
        keys.sort_unstable();
        for w in keys.windows(2) {
            if w[0] == w[1] {
                let e = Edge::from_u64_first_major(w[0]);
                return Err(GraphError::DuplicateEdge { u: e.u, v: e.v });
            }
        }
        // Every arc must have its reverse present: binary-search the sorted keys.
        for e in &self.edges {
            let rev = e.reversed().as_u64_first_major();
            if keys.binary_search(&rev).is_err() {
                return Err(GraphError::MissingReverse { u: e.u, v: e.v });
            }
        }
        Ok(())
    }

    /// Vertex degrees (out-degree in the doubled representation, which equals
    /// the undirected degree).
    pub fn degrees(&self) -> Vec<u32> {
        let n = self.num_nodes();
        let mut deg = vec![0u32; n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
        }
        deg
    }

    /// Device-footprint of this array in bytes (two `u32` per arc), used by
    /// the capacity planning of §III-D6.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
    }

    /// Content digest of the graph: a 64-bit fingerprint over the arc
    /// multiset, independent of arc order (preprocessing sorts anyway, so
    /// two loads of the same graph in different arc orders are the same
    /// workload). Used by the serving layer to key its `PreparedGraph`
    /// cache.
    ///
    /// ```
    /// use tc_graph::EdgeArray;
    /// let a = EdgeArray::from_undirected_pairs([(0, 1), (1, 2)]);
    /// let b = EdgeArray::from_undirected_pairs([(1, 2), (0, 1)]);
    /// let c = EdgeArray::from_undirected_pairs([(0, 1), (1, 3)]);
    /// assert_eq!(a.digest(), b.digest());
    /// assert_ne!(a.digest(), c.digest());
    /// ```
    pub fn digest(&self) -> u64 {
        // Commutative combine (wrapping sum + xor) of a strong per-arc
        // mix (splitmix64), finalized with the arc count so the empty
        // graph and near-misses separate.
        let mut sum = 0u64;
        let mut xor = 0u64;
        for e in &self.edges {
            let h = splitmix64(e.as_u64_first_major());
            sum = sum.wrapping_add(h);
            xor ^= h.rotate_left(17);
        }
        splitmix64(sum ^ xor.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.edges.len() as u64)
    }

    /// Split into a structure of arrays (preprocessing step 7, "unzipping").
    pub fn unzip(&self) -> EdgeSoA {
        let mut src = Vec::with_capacity(self.edges.len());
        let mut dst = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            src.push(e.u);
            dst.push(e.v);
        }
        EdgeSoA { src, dst }
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FromIterator<Edge> for EdgeArray {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        EdgeArray {
            edges: iter.into_iter().collect(),
        }
    }
}

/// Structure-of-arrays edge layout (§III-B step 7). `src[i] -> dst[i]`.
#[derive(Clone, Default, Debug)]
pub struct EdgeSoA {
    pub src: Vec<VertexId>,
    pub dst: Vec<VertexId>,
}

impl EdgeSoA {
    #[inline]
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.src.len(), self.dst.len());
        self.src.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Re-interleave into an array of structures ("zip").
    pub fn zip(&self) -> EdgeArray {
        EdgeArray {
            edges: self
                .src
                .iter()
                .zip(&self.dst)
                .map(|(&u, &v)| Edge::new(u, v))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn from_undirected_pairs_doubles_edges() {
        let g = triangle();
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_nodes(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn from_undirected_pairs_drops_self_loops_and_duplicates() {
        let g = EdgeArray::from_undirected_pairs([(0, 1), (1, 0), (0, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_nodes(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn num_nodes_is_max_id_plus_one() {
        let g = EdgeArray::from_undirected_pairs([(3, 9)]);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(EdgeArray::default().num_nodes(), 0);
    }

    #[test]
    fn validate_detects_self_loop() {
        let g = EdgeArray::from_arcs_unchecked(vec![Edge::new(1, 1)]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
    }

    #[test]
    fn validate_detects_duplicate_arc() {
        let g =
            EdgeArray::from_arcs_unchecked(vec![Edge::new(0, 1), Edge::new(0, 1), Edge::new(1, 0)]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
    }

    #[test]
    fn validate_detects_missing_reverse() {
        let g = EdgeArray::from_arcs_unchecked(vec![Edge::new(0, 1)]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::MissingReverse { u: 0, v: 1 })
        ));
    }

    #[test]
    fn degrees_of_a_path() {
        let g = EdgeArray::from_undirected_pairs([(0, 1), (1, 2)]);
        assert_eq!(g.degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn unzip_zip_roundtrip() {
        let g = triangle();
        let soa = g.unzip();
        assert_eq!(soa.len(), 6);
        let back = soa.zip();
        assert_eq!(back.arcs(), g.arcs());
    }

    #[test]
    fn u64_packing_roundtrip_and_order() {
        let e = Edge::new(5, 70000);
        assert_eq!(Edge::from_u64_first_major(e.as_u64_first_major()), e);
        // first-major key order == (u, v) lexicographic order
        let a = Edge::new(1, 9).as_u64_first_major();
        let b = Edge::new(2, 0).as_u64_first_major();
        assert!(a < b);
    }

    #[test]
    fn undirected_iter_yields_each_edge_once() {
        let g = triangle();
        let und: Vec<_> = g.undirected_iter().collect();
        assert_eq!(und.len(), 3);
        for (u, v) in und {
            assert!(u < v);
        }
    }

    #[test]
    fn bytes_counts_eight_per_arc() {
        assert_eq!(triangle().bytes(), 6 * 8);
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let a = EdgeArray::from_arcs_unchecked(vec![
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(1, 2),
            Edge::new(2, 1),
        ]);
        let b = EdgeArray::from_arcs_unchecked(vec![
            Edge::new(2, 1),
            Edge::new(1, 2),
            Edge::new(1, 0),
            Edge::new(0, 1),
        ]);
        assert_eq!(a.digest(), b.digest(), "arc order must not matter");
        let c = EdgeArray::from_undirected_pairs([(0, 1), (1, 3)]);
        assert_ne!(a.digest(), c.digest());
        assert_ne!(EdgeArray::default().digest(), a.digest());
        // Stable across calls.
        assert_eq!(a.digest(), a.digest());
    }
}
