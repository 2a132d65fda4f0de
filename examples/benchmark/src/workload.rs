//! The four workloads — which graphs, which backend tokens, which loop —
//! and their set-up: graph generation, the engine, and the oracle counts.

use std::sync::Arc;
use std::time::Instant;

use tc_core::Backend;
use tc_engine::{Engine, EngineConfig};
use tc_gen::{GraphSpec, Scale, Seed, Xoshiro256};
use tc_graph::EdgeArray;

use crate::stats;
use crate::tracer::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `gtx980` — the paper's thread-per-edge kernel — over the
    /// Table I analogs: preprocessing paid on every graph, the whole
    /// cache-hit-rate range, and no scheduler, hash path or sanitizer.
    PaperGtx980,
    /// One-shot `gtx980/balanced+hash` over graphs where the hash bins
    /// engage (internet-topology, livejournal, kronecker-13), graphs that
    /// tune to balanced without a hash bin, and one that gets no plan.
    SkewHash,
    /// A closed loop of one-job engine batches mixing cache hits,
    /// prepares, a cluster, multi-GPU one-shots and the CPU path.
    ServeMixed,
    /// One-shot `gtx980/balanced/sanitize/verify`: the executor with the
    /// shadow access log and the static launch verifier on.
    SanitizeVerify,
}

/// One entry of a workload's mix: graph, backend token, copies per pass.
type MixEntry = (GraphSpec, &'static str, usize);

const PAPER_GTX980: &[MixEntry] = &[
    (GraphSpec::InternetTopology, "gtx980", 1),
    (GraphSpec::LiveJournal, "gtx980", 1),
    (GraphSpec::Citeseer, "gtx980", 1),
    (GraphSpec::Dblp, "gtx980", 1),
    (GraphSpec::Kronecker(2), "gtx980", 1),
    (GraphSpec::Kronecker(3), "gtx980", 1),
    (GraphSpec::BarabasiAlbert, "gtx980", 1),
    (GraphSpec::WattsStrogatz, "gtx980", 1),
];

const SKEW_HASH: &[MixEntry] = &[
    (GraphSpec::InternetTopology, "gtx980/balanced+hash", 1),
    (GraphSpec::LiveJournal, "gtx980/balanced+hash", 1),
    (GraphSpec::Kronecker(3), "gtx980/balanced+hash", 1),
    (GraphSpec::Citeseer, "gtx980/balanced+hash", 1),
    (GraphSpec::BarabasiAlbert, "gtx980/balanced+hash", 1),
    (GraphSpec::WattsStrogatz, "gtx980/balanced+hash", 1),
];

// The copies are chosen so the median and 90th-percentile request land
// inside one class of requests, not on the boundary between two.
const SERVE_MIXED: &[MixEntry] = &[
    (GraphSpec::Kronecker(1), "gtx980", 8),
    (GraphSpec::Kronecker(1), "gtx980/balanced+hash", 5),
    (GraphSpec::Dblp, "cluster:2x2/gtx980/balanced", 3),
    (GraphSpec::Kronecker(0), "4xc2050", 2),
    (GraphSpec::LiveJournal, "forward", 2),
];

const SANITIZE_VERIFY: &[MixEntry] = &[
    (GraphSpec::Citeseer, "gtx980/balanced/sanitize/verify", 1),
    (
        GraphSpec::Kronecker(2),
        "gtx980/balanced/sanitize/verify",
        1,
    ),
    (
        GraphSpec::BarabasiAlbert,
        "gtx980/balanced/sanitize/verify",
        1,
    ),
];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGtx980,
        Workload::SkewHash,
        Workload::ServeMixed,
        Workload::SanitizeVerify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGtx980 => "paper-gtx980",
            Workload::SkewHash => "skew-hash",
            Workload::ServeMixed => "serve-mixed",
            Workload::SanitizeVerify => "sanitize-verify",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn mix(self) -> &'static [MixEntry] {
        match self {
            Workload::PaperGtx980 => PAPER_GTX980,
            Workload::SkewHash => SKEW_HASH,
            Workload::ServeMixed => SERVE_MIXED,
            Workload::SanitizeVerify => SANITIZE_VERIFY,
        }
    }
}

/// A generated input graph and its oracle count.
pub struct Graph {
    pub spec: GraphSpec,
    pub name: String,
    pub edges: Arc<EdgeArray>,
    /// Triangles by `tc_core::cpu::count_forward`, computed once per graph
    /// outside the set-up time.
    pub oracle: u64,
}

/// One operation of a pass: count one graph with one backend.
pub struct Op {
    pub graph: usize,
    pub token: &'static str,
    pub backend: Backend,
    pub label: String,
}

/// Everything a run needs before its timed window.
pub struct Setup {
    pub workload: Workload,
    pub graphs: Vec<Graph>,
    /// One pass, in order.
    pub ops: Vec<Op>,
    /// The serving engine (`serve-mixed` only).
    pub engine: Option<Engine>,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of graph generation in each repetition.
    pub gen_s: Vec<f64>,
    /// Host seconds of the oracle counts.
    pub oracle_s: f64,
}

impl Setup {
    /// Set the workload up at least `min_reps` times and for at least
    /// `min_s` host seconds (the last repetition's graphs and engine are
    /// kept), then compute the oracle counts.
    pub fn new(
        workload: Workload,
        scale: Scale,
        seed: Seed,
        min_reps: usize,
        min_s: f64,
        tracer: &mut Tracer,
    ) -> Setup {
        let mut specs: Vec<GraphSpec> = Vec::new();
        for &(spec, _, _) in workload.mix() {
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
        let started = Instant::now();
        let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
        let mut built = None;
        while setup_s.len() < min_reps.max(1) || started.elapsed().as_secs_f64() < min_s {
            drop(built.take());
            tracer.open("pass", "setup");
            let t0 = Instant::now();
            let graphs: Vec<(GraphSpec, String, EdgeArray)> = specs
                .iter()
                .map(|&spec| {
                    let name = spec.name(scale);
                    tracer.open("op", &name);
                    let g = tracer.call("gen", || spec.generate(scale, seed));
                    tracer.close();
                    (spec, name, g)
                })
                .collect();
            gen_s.push(t0.elapsed().as_secs_f64());
            // One engine worker, so the load stays within the host's cores
            // next to the simulator's own threads.
            let config = EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            };
            let engine = (workload == Workload::ServeMixed)
                .then(|| tracer.call("engine_new", || Engine::new(config)));
            setup_s.push(t0.elapsed().as_secs_f64());
            tracer.close();
            built = Some((graphs, engine));
        }
        let (graphs, engine) = built.expect("at least one set-up repetition");

        tracer.open("pass", "oracle");
        let t0 = Instant::now();
        let graphs: Vec<Graph> = graphs
            .into_iter()
            .map(|(spec, name, g)| {
                tracer.open("op", &name);
                let oracle = tracer.call("forward", || tc_core::cpu::count_forward(&g));
                tracer.close();
                Graph {
                    spec,
                    oracle: oracle.expect("generated graphs are valid"),
                    name,
                    edges: Arc::new(g),
                }
            })
            .collect();
        let oracle_s = t0.elapsed().as_secs_f64();
        tracer.close();

        let mut ops = Vec::new();
        for &(spec, token, copies) in workload.mix() {
            let graph = graphs
                .iter()
                .position(|g| g.spec == spec)
                .expect("every mix graph was generated");
            let backend: Backend = token.parse().expect("workload tokens are canonical");
            for _ in 0..copies {
                ops.push(Op {
                    graph,
                    token,
                    backend: backend.clone(),
                    label: format!("{} @ {token}", graphs[graph].name),
                });
            }
        }
        if workload == Workload::ServeMixed {
            // The request order is a seeded shuffle of the fixed counts.
            Xoshiro256::new(seed.child(0x5E)).shuffle(&mut ops);
        }
        Setup {
            workload,
            graphs,
            ops,
            engine,
            setup_s,
            gen_s,
            oracle_s,
        }
    }

    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }
}
