//! `tc-benchmark --workload <name> [--seed <n>] [--seconds <s>]
//! [--trace <0|1>] [--trace-dir <dir>] [--out <file>]`
//!
//! Runs one workload for `--seconds` host seconds and prints each metric
//! with its unit, then, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and `--trace-dir` also writes `<workload>.trace.json` (Chrome trace of
//! the host spans) and `<workload>.layers.json` (self times per layer).
//! `--out` appends the result, tagged with workload and seed, as one JSON
//! line for `compare.py`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use tc_benchmark::tracer::Tracer;
use tc_benchmark::workload::{Setup, Workload};
use tc_benchmark::{run, stats, trace_files, SETUP_MIN_S, SETUP_REPS};
use tc_gen::suite::SUITE_SEED;
use tc_gen::{Scale, Seed};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: tc-benchmark --workload <paper-gtx980|skew-hash|serve-mixed|\
sanitize-verify> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-dir <dir>] [--out <file>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperGtx980,
        seed: SUITE_SEED.0,
        seconds: 15.0,
        trace: false,
        trace_dir: None,
        out: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let setup = Setup::new(
        args.workload,
        Scale::Bench,
        Seed(args.seed),
        SETUP_REPS,
        SETUP_MIN_S,
        &mut tracer,
    );
    let run = run::run(&setup, args.seconds, args.trace, &mut tracer);

    for m in &run.metrics {
        println!("{:<40} {:>18} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let share = |s: f64| stats::ratio(s, run.untraced_host_s) * 100.0;
        println!(
            "tracing overhead: traced minus untraced pass {:+.6} s ({:+.2}% of {:.6} s); \
             inside the tracer {:.6} s per pass ({:.3}%)",
            run.tracing_overhead_s,
            share(run.tracing_overhead_s),
            run.untraced_host_s,
            run.instrumentation_s,
            share(run.instrumentation_s)
        );
        println!(
            "op spans cover >= {:.2}% of each traced pass",
            run.span_coverage * 100.0
        );
    }
    if let Some(dir) = &args.trace_dir {
        let (chrome, layers) = trace_files(args.workload, args.seed, &run, &tracer);
        let name = args.workload.name();
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{name}.trace.json")), chrome))
            .and_then(|()| std::fs::write(dir.join(format!("{name}.layers.json")), layers));
        if let Err(e) = written {
            eprintln!("writing trace files to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let line = stats::result_json(run.attempted, run.failed, &run.metrics);
    if let Some(out) = &args.out {
        let tagged = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            args.workload.name(),
            args.seed,
            args.trace as u8
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(tagged.as_bytes()));
        if let Err(e) = appended {
            eprintln!("appending to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
