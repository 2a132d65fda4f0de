//! `tcount` — count triangles in a graph file.
//!
//! ```text
//! tcount <path> [--format text|binary|metis] [--backend NAME]
//!               [--clustering] [--validate] [--trace FILE]
//!               [--profile [FILE]] [--sanitize [paranoid]] [--verify]
//! tcount batch <jobfile> [--scale smoke|bench|large] [--workers N]
//!                        [--json FILE] [--metrics [FILE]] [--prom FILE]
//!                        [--trace FILE] [--shed]
//! tcount sanitize-selftest
//! tcount verify-selftest
//!
//! backends: forward (default) | edge-iterator | node-iterator | hashed |
//!           parallel | hybrid[:<tau>] | gtx980 | c2050 | nvs5200m |
//!           <n>x<device> | <device>/split:<parts> |
//!           cluster:<n>x<m>[:2d]/<device>
//!
//! Any simulated-GPU backend takes a `/balanced[:<t>x<w>]` suffix to turn
//! on the workload-balanced kernel scheduler: `gtx980/balanced` auto-tunes
//! the bin plan, `gtx980/balanced:16x8` splits at work 16 with a
//! virtual-warp width of 8 (see DESIGN.md "Kernel scheduling"), and
//! `gtx980/balanced+hash` gives the heaviest bin the shared-memory
//! hash-intersection kernel. A `/reorder` suffix (after the scheduling
//! clause) relabels vertices by descending degree before orientation, and
//! a `/sanitize[:paranoid]` suffix runs the pipeline under the
//! compute-sanitizer layer (DESIGN.md §12), and a final `/verify` suffix
//! turns on the static kernel-launch verifier (DESIGN.md §15): every
//! launch's declared access contract is proven in-bounds and race-free
//! against the live allocation map before it runs.
//!
//! `cluster:<n>x<m>[:2d]/<device>` runs the sharded cluster engine on a
//! simulated grid of `n` nodes × `m` devices: the oriented arcs are
//! partitioned (1D owner ranges by default, `:2d` for the owner × target
//! grid), each device holds only its shard, and remote nodes pay a modeled
//! interconnect (DESIGN.md §14). Composes with the same suffixes:
//! `cluster:2x2/gtx980/balanced+hash/reorder`.
//! ```
//!
//! `<path>` may be `suite:<name>` (e.g. `suite:dblp`, `suite:kronecker-9`)
//! to generate a smoke-scale evaluation-suite graph in memory instead of
//! reading a file.
//!
//! `--sanitize [paranoid]` (simulated GPU backends) is equivalent to the
//! `/sanitize` backend suffix: the run executes with memcheck, initcheck,
//! and racecheck shadow tracking, the finding report is printed as JSON,
//! and the exit code is nonzero if there is at least one finding. Lints
//! (uncoalesced loops, divergence-heavy warps) are advisory and never fail
//! the run.
//!
//! `tcount sanitize-selftest` runs the seeded-bug kernels (out-of-bounds
//! read, uninitialized read, write-write race), prints their reports, and
//! fails unless every seeded bug was detected — the CI gate that proves
//! the sanitizer actually fires.
//!
//! `--verify` (simulated GPU backends) is equivalent to the `/verify`
//! backend suffix: the static verifier report is printed as JSON and the
//! exit code is nonzero if there is at least one finding. `tcount
//! verify-selftest` runs kernels with seeded dishonest contracts
//! (footprint too narrow, false disjointness claim, shared-budget
//! understatement, statically out-of-bounds footprint) and fails unless
//! every lie is caught — the CI gate that proves the verifier actually
//! fires.
//!
//! `--trace FILE` (simulated GPU backends, single- or multi-device) writes
//! a Chrome Trace Event file of the device's phases — nested spans over
//! the leaf operations, one trace thread per device — viewable in
//! `chrome://tracing` or Perfetto.
//!
//! `--profile [FILE]` (simulated GPU backends) prints the nvprof-style
//! per-phase hardware-counter table — the eight §III-B preprocessing steps
//! plus the counting kernel, with DRAM traffic, achieved bandwidth,
//! texture/L2 hit rates, divergence serialization, issue stalls, and
//! occupancy — and, when FILE is given, writes the full report as JSON.
//!
//! Reads an edge list (SNAP-style text by default), counts its triangles
//! with the chosen backend, and optionally reports clustering statistics —
//! the workflow the paper's introduction motivates.
//!
//! `tcount batch <jobfile>` runs many jobs through the `tc-engine` batched
//! counting engine: repeated counts of the same graph reuse one prepared
//! device session (see the jobfile format in `tc_engine::jobfile`).
//! `--metrics [FILE]` emits the engine's telemetry snapshot as canonical
//! JSON (stdout when FILE is omitted), `--prom FILE` writes the same
//! snapshot as Prometheus text exposition, and `--trace FILE` writes the
//! unified Chrome trace: one trace thread per request, engine stage spans
//! nesting the kernel profiler's spans. Set `TC_TELEMETRY_CI=1` to null
//! the advisory (host-measured) metrics section, making the metrics and
//! trace artifacts byte-identical across runs and `--workers` values.
//! `--shed` refuses jobs at admission instead of blocking when the queue
//! is full (sheds are counted in the advisory `engine_shed_total`).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use triangles::core::clustering::{average_clustering, transitivity};
use triangles::core::count::{Backend, CountRequest, TriangleCount};
use triangles::core::gpu::cluster::run_cluster_profiled;
use triangles::core::gpu::multi::{merged_profile, run_multi_gpu_profiled};
use triangles::core::gpu::pipeline::{run_gpu_pipeline_profiled, RunTrace};
use triangles::engine::{parse_jobfile, Admission, Engine, EngineConfig};
use triangles::gen::Scale;
use triangles::graph::{io, EdgeArray, GraphStats};
use triangles::simt::sanitizer::selftest;
use triangles::simt::trace::{write_chrome_trace_spanned, TraceThread};
use triangles::simt::verifier::selftest as verify_selftest;
use triangles::simt::SanitizerMode;

struct Args {
    path: String,
    format: Format,
    backend: Backend,
    clustering: bool,
    validate: bool,
    trace: Option<String>,
    /// `Some(None)` = print the profile table; `Some(Some(file))` = also
    /// write the JSON report.
    profile: Option<Option<String>>,
    /// `--sanitize [paranoid]`: requested sanitizer mode, folded into the
    /// backend token.
    sanitize: Option<SanitizerMode>,
    /// `--verify`: run the static launch verifier, folded into the backend
    /// token.
    verify: bool,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Binary,
    Metis,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tcount <path> [--format text|binary|metis] [--backend NAME]\n\
         \x20             [--clustering] [--validate] [--trace FILE] [--profile [FILE]]\n\
         \x20             [--sanitize [paranoid]] [--verify]\n\
         \x20      tcount batch <jobfile> [--scale smoke|bench|large] [--workers N]\n\
         \x20                             [--json FILE] [--metrics [FILE]] [--prom FILE]\n\
         \x20                             [--trace FILE] [--shed]\n\
         \x20      tcount sanitize-selftest\n\
         \x20      tcount verify-selftest\n\
         <path> may be suite:<name> to generate a smoke-scale suite graph\n\
         backends: forward | edge-iterator | node-iterator | hashed | parallel |\n\
         \x20         hybrid[:<tau>] | gtx980 | c2050 | nvs5200m | <n>x<device> |\n\
         \x20         <device>/split:<parts> | cluster:<n>x<m>[:2d]/<device>\n\
         \x20         GPU backends accept, in this order, /balanced[:<t>x<w>] or\n\
         \x20         /balanced+hash for the workload-balanced kernel scheduler,\n\
         \x20         /reorder for degree-descending relabeling,\n\
         \x20         /sanitize[:paranoid] for the compute-sanitizer layer, and\n\
         \x20         /verify for the static launch verifier (same as --verify);\n\
         \x20         cluster:<n>x<m> shards the graph across n nodes x m devices\n\
         \x20         (\":2d\" = 2D grid)"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1).peekable();
    let path = args.next().ok_or("missing input path")?;
    if path == "-h" || path == "--help" {
        return Err(String::new());
    }
    let mut parsed = Args {
        path,
        format: Format::Text,
        backend: Backend::CpuForward,
        clustering: false,
        validate: false,
        trace: None,
        profile: None,
        sanitize: None,
        verify: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--format" => {
                parsed.format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("binary") => Format::Binary,
                    Some("metis") => Format::Metis,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--backend" => {
                let name = args.next().ok_or("missing backend name")?;
                parsed.backend = name.parse().map_err(|e| format!("{e}"))?;
            }
            "--clustering" => parsed.clustering = true,
            "--validate" => parsed.validate = true,
            "--trace" => parsed.trace = Some(args.next().ok_or("missing trace path")?),
            "--profile" => {
                // The FILE operand is optional: absent or another flag
                // means print-only.
                let file = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next(),
                    _ => None,
                };
                parsed.profile = Some(file);
            }
            "--sanitize" => {
                // The mode operand is optional: absent or another flag
                // means plain Check.
                parsed.sanitize = Some(match args.peek().map(String::as_str) {
                    Some("paranoid") => {
                        args.next();
                        SanitizerMode::Paranoid
                    }
                    _ => SanitizerMode::Check,
                });
            }
            "--verify" => parsed.verify = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// Write the nested Chrome trace for one or more device runs.
fn write_trace(traces: &[RunTrace], path: &str) -> Result<(), String> {
    let threads: Vec<TraceThread<'_>> = traces
        .iter()
        .map(|t| TraceThread {
            name: &t.device_name,
            log: &t.log,
            spans: &t.spans,
        })
        .collect();
    write_chrome_trace_spanned(&threads, path).map_err(|e| format!("writing trace: {e}"))?;
    println!("trace written to {path}");
    Ok(())
}

/// Print the per-phase table and optionally persist the JSON report.
fn emit_profile(
    profile: &triangles::simt::ProfileReport,
    file: &Option<String>,
) -> Result<(), String> {
    print!(
        "{}",
        triangles::bench::profile::phase_table(profile).render()
    );
    if let Some(path) = file {
        std::fs::write(path, profile.to_json()).map_err(|e| format!("writing profile: {e}"))?;
        println!("profile written to {path}");
    }
    Ok(())
}

/// Run a GPU backend through the profiled entry points, honoring `--trace`
/// and `--profile`.
fn run_gpu_observed(graph: &EdgeArray, args: &Args) -> Result<TriangleCount, String> {
    match &args.backend {
        Backend::Gpu(opts) => {
            let (report, trace) =
                run_gpu_pipeline_profiled(graph, opts).map_err(|e| format!("counting: {e}"))?;
            if let Some(path) = &args.trace {
                write_trace(std::slice::from_ref(&trace), path)?;
            }
            if let Some(file) = &args.profile {
                emit_profile(&trace.profile, file)?;
            }
            Ok(TriangleCount {
                triangles: report.triangles,
                backend: args.backend.label(),
                seconds: report.total_s,
                profile: Some(trace.profile),
                sanitizer: report.sanitizer.clone(),
                verifier: report.verifier.clone(),
                gpu: Some(report),
            })
        }
        Backend::MultiGpu { options, devices } => {
            let (report, traces) = run_multi_gpu_profiled(graph, options, *devices)
                .map_err(|e| format!("counting: {e}"))?;
            if let Some(path) = &args.trace {
                write_trace(&traces, path)?;
            }
            if let Some(file) = &args.profile {
                emit_profile(&merged_profile(&traces), file)?;
            }
            Ok(TriangleCount {
                triangles: report.triangles,
                backend: args.backend.label(),
                seconds: report.total_s,
                profile: Some(merged_profile(&traces)),
                sanitizer: report.sanitizer,
                verifier: report.verifier,
                gpu: None,
            })
        }
        Backend::Cluster {
            options,
            nodes,
            devices_per_node,
            partition,
        } => {
            let topology = triangles::simt::ClusterTopology::new(*nodes, *devices_per_node);
            let (report, traces) = run_cluster_profiled(graph, options, topology, *partition)
                .map_err(|e| format!("counting: {e}"))?;
            if let Some(path) = &args.trace {
                write_trace(&traces, path)?;
            }
            if let Some(file) = &args.profile {
                emit_profile(&merged_profile(&traces), file)?;
            }
            Ok(TriangleCount {
                triangles: report.triangles,
                backend: args.backend.label(),
                seconds: report.total_s,
                profile: Some(merged_profile(&traces)),
                sanitizer: report.sanitizer,
                verifier: report.verifier,
                gpu: None,
            })
        }
        // Split subproblems run one after another on fresh devices, so
        // they merge into one profile but have no single device timeline.
        Backend::GpuSplit { .. } if args.trace.is_none() => {
            let result = CountRequest::new(args.backend.clone())
                .profile(true)
                .graph_name(&args.path)
                .run(graph)
                .map_err(|e| format!("counting: {e}"))?;
            if let (Some(profile), Some(file)) = (&result.profile, &args.profile) {
                emit_profile(profile, file)?;
            }
            Ok(result)
        }
        Backend::GpuSplit { .. } => Err("--trace is not available on split backends".into()),
        _ => Err("--trace/--profile require a simulated-GPU backend".into()),
    }
}

/// Resolve a `suite:<name>` pseudo-path to a generated smoke-scale suite
/// graph, so CI gates need no graph files on disk.
fn suite_graph(name: &str) -> Result<EdgeArray, String> {
    let scale = Scale::Smoke;
    for spec in triangles::gen::GraphSpec::all() {
        if spec.name(scale) == name {
            return Ok(spec.generate(scale, triangles::gen::suite::SUITE_SEED));
        }
    }
    let names: Vec<String> = triangles::gen::GraphSpec::all()
        .iter()
        .map(|s| s.name(scale))
        .collect();
    Err(format!(
        "unknown suite graph {name:?} (available: {})",
        names.join(", ")
    ))
}

fn run(mut args: Args) -> Result<(), String> {
    if let Some(mode) = args.sanitize {
        if !args.backend.set_sanitizer(mode) {
            return Err("--sanitize requires a simulated-GPU backend".into());
        }
    }
    if args.verify && !args.backend.set_verify(true) {
        return Err("--verify requires a simulated-GPU backend".into());
    }
    let graph: EdgeArray = if let Some(name) = args.path.strip_prefix("suite:") {
        suite_graph(name)?
    } else {
        match args.format {
            Format::Text => io::read_text(&args.path),
            Format::Binary => io::read_binary(&args.path),
            Format::Metis => io::read_metis(&args.path),
        }
        .map_err(|e| format!("loading {}: {e}", args.path))?
    };

    if args.validate {
        graph.validate().map_err(|e| format!("validation: {e}"))?;
        println!("validation: ok");
    }

    let stats = GraphStats::from_edge_array(&graph);
    println!(
        "graph: {} nodes, {} edges, max degree {}, avg degree {:.2}",
        stats.num_nodes, stats.num_edges, stats.max_degree, stats.avg_degree
    );

    // Observability requests route GPU backends through the profiled
    // pipeline variants.
    let result = if args.trace.is_some() || args.profile.is_some() {
        run_gpu_observed(&graph, &args)?
    } else {
        CountRequest::new(args.backend.clone())
            .graph_name(&args.path)
            .run(&graph)
            .map_err(|e| format!("counting: {e}"))?
    };
    println!(
        "triangles: {} ({} in {:.3} ms)",
        result.triangles,
        result.backend,
        result.seconds * 1e3
    );
    if let Some(report) = &result.gpu {
        println!(
            "  gpu: kernel {:.3} ms, tex hit {:.1}%, {:.1} GB/s, preprocessing fraction {:.2}{}",
            report.kernel.time_s * 1e3,
            report.kernel.tex.hit_rate() * 100.0,
            report.kernel.achieved_bandwidth_gbs,
            report.preprocess_fraction,
            if report.used_cpu_fallback {
                " (CPU-preprocessing fallback)"
            } else {
                ""
            }
        );
    }

    if let Some(report) = &result.sanitizer {
        println!("{}", report.to_json());
        if !report.is_clean() {
            return Err(format!(
                "sanitizer: {} finding(s) (see report above)",
                report.findings.len()
            ));
        }
        println!(
            "sanitizer: clean ({} mode, {} lint(s))",
            report.mode,
            report.lints.len()
        );
    } else if args.backend.sanitizer() != SanitizerMode::Off {
        return Err("sanitizer was requested but produced no report".into());
    }

    if let Some(report) = &result.verifier {
        println!("{}", report.to_json());
        if !report.is_clean() {
            return Err(format!(
                "verifier: {} finding(s) (see report above)",
                report.findings.len()
            ));
        }
        println!(
            "verifier: clean ({} launch(es) checked, {} proven race-free, \
             {} racecheck(s) skipped, {} host pass(es) checked)",
            report.launches_checked,
            report.launches_proven,
            report.racechecks_skipped,
            report.passes_checked
        );
    } else if args.backend.verify() {
        return Err("verifier was requested but produced no report".into());
    }

    if args.clustering {
        let avg = average_clustering(&graph).map_err(|e| e.to_string())?;
        let t = transitivity(&graph).map_err(|e| e.to_string())?;
        println!("average clustering coefficient: {avg:.6}");
        println!("transitivity ratio:             {t:.6}");
    }
    Ok(())
}

struct BatchArgs {
    jobfile: String,
    scale: Scale,
    workers: Option<usize>,
    json: Option<String>,
    /// `Some(None)` = print the metrics JSON; `Some(Some(file))` = write it.
    metrics: Option<Option<String>>,
    /// Write the Prometheus text exposition to this file.
    prom: Option<String>,
    /// Write the unified Chrome trace (engine stages + kernel spans) here.
    trace: Option<String>,
    /// Shed jobs instead of blocking when the queue is full.
    shed: bool,
}

fn parse_batch_args(args: impl Iterator<Item = String>) -> Result<BatchArgs, String> {
    let mut args = args.peekable();
    let jobfile = args.next().ok_or("missing jobfile path")?;
    let mut parsed = BatchArgs {
        jobfile,
        scale: Scale::Smoke,
        workers: None,
        json: None,
        metrics: None,
        prom: None,
        trace: None,
        shed: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                parsed.scale = match args.next().as_deref() {
                    Some("smoke") => Scale::Smoke,
                    Some("bench") => Scale::Bench,
                    Some("large") => Scale::Large,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--workers" => {
                let n = args.next().ok_or("missing worker count")?;
                parsed.workers = Some(
                    n.parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("workers must be a positive integer, got {n:?}"))?,
                );
            }
            "--json" => parsed.json = Some(args.next().ok_or("missing json path")?),
            "--metrics" => {
                // The FILE operand is optional, like --profile: absent or
                // another flag means print to stdout.
                let file = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next(),
                    _ => None,
                };
                parsed.metrics = Some(file);
            }
            "--prom" => parsed.prom = Some(args.next().ok_or("missing prometheus path")?),
            "--trace" => parsed.trace = Some(args.next().ok_or("missing trace path")?),
            "--shed" => parsed.shed = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// `tcount batch <jobfile>`: run a jobfile through the batched engine.
fn run_batch_cmd(args: &BatchArgs) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.jobfile)
        .map_err(|e| format!("reading {}: {e}", args.jobfile))?;
    let jobs = parse_jobfile(&text, args.scale).map_err(|e| e.to_string())?;
    let mut config = EngineConfig::default();
    if let Some(w) = args.workers {
        config.workers = w;
    }
    if args.shed {
        config.admission = Admission::Shed;
    }
    println!(
        "batch: {} jobs, {} workers, queue {} slots, cache {} sessions",
        jobs.len(),
        config.workers,
        config.queue_capacity,
        config.cache_capacity
    );
    let engine = Engine::new(config);
    let report = engine.run_batch(jobs);
    let mut failures = 0usize;
    for job in &report.jobs {
        match &job.result {
            Ok(r) => println!(
                "  {:<40} {:>12} triangles  {:>10.3} ms  {}",
                job.name,
                r.triangles,
                r.seconds * 1e3,
                if r.cache_hit { "cache-hit" } else { "prepared" }
            ),
            Err(e) => {
                failures += 1;
                println!("  {:<40} error: {e}", job.name);
            }
        }
    }
    println!(
        "{} ok, {} failed; {} cache hits, {} prepares; {} devices created",
        report.jobs.len() - failures,
        failures,
        report.cache_hits,
        report.cache_misses,
        report.devices_created
    );
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written to {path}");
    }
    // CI mode (TC_TELEMETRY_CI=1) nulls the advisory section so the
    // metrics artifact bytes are identical across hosts and worker counts.
    let include_advisory = !std::env::var("TC_TELEMETRY_CI").is_ok_and(|v| v == "1");
    if let Some(file) = &args.metrics {
        let json = report.metrics_json(include_advisory);
        match file {
            Some(path) => {
                std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
                println!("metrics written to {path}");
            }
            None => print!("{json}"),
        }
    }
    if let Some(path) = &args.prom {
        std::fs::write(path, report.metrics_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("prometheus exposition written to {path}");
    }
    if let Some(path) = &args.trace {
        std::fs::write(path, report.trace_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("unified trace written to {path}");
    }
    if failures > 0 {
        Err(format!("{failures} job(s) failed"))
    } else {
        Ok(())
    }
}

/// `tcount sanitize-selftest`: run the seeded-bug kernels and fail unless
/// every one of them was detected.
fn run_selftest_cmd() -> ExitCode {
    let bugs = selftest::run();
    println!("{}", selftest::to_json(&bugs));
    if selftest::all_detected(&bugs) {
        println!("sanitize-selftest: all {} seeded bugs detected", bugs.len());
        ExitCode::SUCCESS
    } else {
        let missed: Vec<&str> = bugs
            .iter()
            .filter(|b| !b.detected)
            .map(|b| b.name)
            .collect();
        eprintln!(
            "error: sanitize-selftest: seeded bug(s) went undetected: {}",
            missed.join(", ")
        );
        ExitCode::FAILURE
    }
}

/// `tcount verify-selftest`: run the seeded dishonest-contract kernels
/// and fail unless every lie was caught.
fn run_verify_selftest_cmd() -> ExitCode {
    let lies = verify_selftest::run();
    println!("{}", verify_selftest::to_json(&lies));
    if verify_selftest::all_detected(&lies) {
        println!(
            "verify-selftest: all {} seeded contract lies detected",
            lies.len()
        );
        ExitCode::SUCCESS
    } else {
        let missed: Vec<&str> = lies
            .iter()
            .filter(|l| !l.detected)
            .map(|l| l.name)
            .collect();
        eprintln!(
            "error: verify-selftest: seeded contract lie(s) went undetected: {}",
            missed.join(", ")
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("sanitize-selftest") {
        return run_selftest_cmd();
    }
    if argv.peek().map(String::as_str) == Some("verify-selftest") {
        return run_verify_selftest_cmd();
    }
    if argv.peek().map(String::as_str) == Some("batch") {
        argv.next();
        return match parse_batch_args(argv) {
            Ok(args) => match run_batch_cmd(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                if !e.is_empty() {
                    eprintln!("error: {e}");
                }
                usage()
            }
        };
    }
    match parse_args() {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage()
        }
    }
}
