//! The evaluation suite: scaled-down analogs of the paper's 13 Table I
//! graphs.
//!
//! Real datasets (SNAP, DIMACS) are not redistributable, so each row is
//! replaced by a synthetic analog tuned to land in the same *regime* —
//! degree skew, triangles-to-edges ratio, and relative size — at a size the
//! cycle-level GPU simulator can process in benchmark time. See DESIGN.md §2
//! for the substitution rationale. Every graph is deterministic given the
//! suite seed.

use tc_graph::EdgeArray;

use crate::barabasi_albert::BarabasiAlbert;
use crate::copaper::CoPaper;
use crate::kronecker::Rmat;
use crate::rng::Seed;
use crate::watts_strogatz::WattsStrogatz;

/// How large to build the suite. Node counts are roughly the paper's divided
/// by 2^12 (smoke), 2^8 (bench), 2^5 (large).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny graphs for unit/integration tests (hundreds of edges).
    Smoke,
    /// Default benchmarking size (10⁴–10⁶ edges): large enough for stable
    /// cache statistics, small enough for cycle simulation.
    Bench,
    /// Overnight size (up to ~10⁷ edges).
    Large,
}

/// One of the thirteen Table I workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphSpec {
    /// Analog of the SNAP Internet (as-Skitter) topology: highly skewed
    /// R-MAT, moderate density, triangles ≈ edges.
    InternetTopology,
    /// Analog of the LiveJournal social network.
    LiveJournal,
    /// Analog of the Orkut social network — the largest real graph, the one
    /// marked † (did not fit in device memory) on the C2050.
    Orkut,
    /// Analog of the DIMACS Citeseer co-paper network (clique union,
    /// triangles ≫ edges).
    Citeseer,
    /// Analog of the DIMACS DBLP co-paper network.
    Dblp,
    /// DIMACS-style Kronecker R-MAT at the given scale offset 0..=5,
    /// mirroring the paper's Kronecker 16…21 ladder (the top rung is the
    /// † graph on the C2050).
    Kronecker(u8),
    /// Barabási–Albert preferential attachment: triangle-poor, lowest cache
    /// hit rate in Table II.
    BarabasiAlbert,
    /// Watts–Strogatz small world: regular degrees, triangle-rich.
    WattsStrogatz,
}

impl GraphSpec {
    /// All thirteen specs in Table I row order.
    pub fn all() -> Vec<GraphSpec> {
        let mut v = vec![
            GraphSpec::InternetTopology,
            GraphSpec::LiveJournal,
            GraphSpec::Orkut,
            GraphSpec::Citeseer,
            GraphSpec::Dblp,
        ];
        v.extend((0..=5).map(GraphSpec::Kronecker));
        v.push(GraphSpec::BarabasiAlbert);
        v.push(GraphSpec::WattsStrogatz);
        v
    }

    /// Table I row label (paper naming, with the ladder resolved to the
    /// scaled Kronecker exponent).
    pub fn name(&self, scale: Scale) -> String {
        match self {
            GraphSpec::InternetTopology => "internet-topology".into(),
            GraphSpec::LiveJournal => "livejournal".into(),
            GraphSpec::Orkut => "orkut".into(),
            GraphSpec::Citeseer => "citeseer".into(),
            GraphSpec::Dblp => "dblp".into(),
            GraphSpec::Kronecker(k) => {
                format!("kronecker-{}", kron_base(scale) + *k as u32)
            }
            GraphSpec::BarabasiAlbert => "barabasi-albert".into(),
            GraphSpec::WattsStrogatz => "watts-strogatz".into(),
        }
    }

    /// Generate the graph at the given scale. The per-spec seed is derived
    /// from the suite seed so rows are independent.
    pub fn generate(&self, scale: Scale, suite_seed: Seed) -> EdgeArray {
        let seed = suite_seed.child(self.seed_index());
        // (node-ish size knob, density knob) per scale
        match *self {
            GraphSpec::InternetTopology => {
                let s = match scale {
                    Scale::Smoke => 9,
                    Scale::Bench => 13,
                    Scale::Large => 16,
                };
                Rmat::scale(s)
                    .edge_factor(13)
                    .probabilities(0.62, 0.16, 0.16)
                    .generate(seed)
            }
            GraphSpec::LiveJournal => {
                let s = match scale {
                    Scale::Smoke => 9,
                    Scale::Bench => 14,
                    Scale::Large => 17,
                };
                Rmat::scale(s).edge_factor(17).generate(seed)
            }
            GraphSpec::Orkut => {
                let (s, ef) = match scale {
                    Scale::Smoke => (9, 24),
                    Scale::Bench => (14, 60),
                    Scale::Large => (17, 60),
                };
                Rmat::scale(s).edge_factor(ef).generate(seed)
            }
            GraphSpec::Citeseer => {
                let (authors, papers) = match scale {
                    Scale::Smoke => (96, 80),
                    Scale::Bench => (3_000, 2_600),
                    Scale::Large => (24_000, 21_000),
                };
                CoPaper::new(authors, papers)
                    .author_range(3, 26)
                    .core_fraction(0.25)
                    .generate(seed)
            }
            GraphSpec::Dblp => {
                let (authors, papers) = match scale {
                    Scale::Smoke => (128, 110),
                    Scale::Bench => (4_000, 3_600),
                    Scale::Large => (32_000, 29_000),
                };
                CoPaper::new(authors, papers)
                    .author_range(2, 14)
                    .core_fraction(0.2)
                    .generate(seed)
            }
            GraphSpec::Kronecker(k) => {
                let base = kron_base(scale);
                let ef = match scale {
                    Scale::Smoke => 12,
                    Scale::Bench => 38,
                    Scale::Large => 48,
                };
                Rmat::scale(base + k as u32).edge_factor(ef).generate(seed)
            }
            GraphSpec::BarabasiAlbert => {
                let (n, m) = match scale {
                    Scale::Smoke => (200, 6),
                    Scale::Bench => (3_000, 30),
                    Scale::Large => (25_000, 60),
                };
                BarabasiAlbert::new(n, m).generate(seed)
            }
            GraphSpec::WattsStrogatz => {
                let (n, k) = match scale {
                    Scale::Smoke => (300, 8),
                    Scale::Bench => (12_000, 24),
                    Scale::Large => (100_000, 50),
                };
                WattsStrogatz::new(n, k, 0.4).generate(seed)
            }
        }
    }

    fn seed_index(&self) -> u64 {
        match *self {
            GraphSpec::InternetTopology => 1,
            GraphSpec::LiveJournal => 2,
            GraphSpec::Orkut => 3,
            GraphSpec::Citeseer => 4,
            GraphSpec::Dblp => 5,
            GraphSpec::Kronecker(k) => 10 + k as u64,
            GraphSpec::BarabasiAlbert => 20,
            GraphSpec::WattsStrogatz => 21,
        }
    }
}

/// Kronecker ladder base exponent per scale (the paper's ladder is 16…21).
fn kron_base(scale: Scale) -> u32 {
    match scale {
        Scale::Smoke => 6,
        Scale::Bench => 10,
        Scale::Large => 12,
    }
}

/// A generated suite row.
#[derive(Clone, Debug)]
pub struct SuiteGraph {
    pub spec: GraphSpec,
    pub name: String,
    pub graph: EdgeArray,
}

/// Default suite seed: fixed so EXPERIMENTS.md numbers are reproducible.
pub const SUITE_SEED: Seed = Seed(0x7C1A_9E55);

/// Build the full 13-row suite at the given scale.
pub fn full_suite(scale: Scale) -> Vec<SuiteGraph> {
    full_suite_seeded(scale, SUITE_SEED)
}

/// Build the suite with an explicit seed.
pub fn full_suite_seeded(scale: Scale, seed: Seed) -> Vec<SuiteGraph> {
    GraphSpec::all()
        .into_iter()
        .map(|spec| SuiteGraph {
            spec,
            name: spec.name(scale),
            graph: spec.generate(scale, seed),
        })
        .collect()
}

/// The Kronecker ladder only (Figure 1's x-axis).
pub fn kronecker_ladder(scale: Scale, seed: Seed) -> Vec<SuiteGraph> {
    (0..=5)
        .map(|k| {
            let spec = GraphSpec::Kronecker(k);
            SuiteGraph {
                spec,
                name: spec.name(scale),
                graph: spec.generate(scale, seed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_thirteen_rows() {
        assert_eq!(GraphSpec::all().len(), 13);
        let suite = full_suite(Scale::Smoke);
        assert_eq!(suite.len(), 13);
        for row in &suite {
            row.graph.validate().unwrap();
            assert!(row.graph.num_edges() > 0, "{} is empty", row.name);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = full_suite(Scale::Smoke);
        let b = full_suite(Scale::Smoke);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph.arcs(), y.graph.arcs(), "{}", x.name);
        }
    }

    #[test]
    fn names_are_distinct() {
        let suite = full_suite(Scale::Smoke);
        let mut names: Vec<&str> = suite.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn kronecker_ladder_doubles_nodes() {
        let ladder = kronecker_ladder(Scale::Smoke, SUITE_SEED);
        assert_eq!(ladder.len(), 6);
        for w in ladder.windows(2) {
            let ratio = w[1].graph.num_nodes() as f64 / w[0].graph.num_nodes() as f64;
            assert!((1.5..=2.5).contains(&ratio), "node ratio {ratio}");
        }
    }

    #[test]
    fn regimes_hold_at_smoke_scale() {
        use tc_graph::stats::degree_cv;
        let seed = SUITE_SEED;
        let internet = GraphSpec::InternetTopology.generate(Scale::Smoke, seed);
        let ws = GraphSpec::WattsStrogatz.generate(Scale::Smoke, seed);
        // The internet analog must be far more skewed than the small world.
        assert!(degree_cv(&internet) > 2.0 * degree_cv(&ws));
    }
}
