//! The repository benchmark: four workloads, the end-to-end metrics of the
//! issue (two of which every workload reports, which is what the driver
//! gates), and per-layer attribution measured from outside the crates.  See
//! `README.md` beside this file and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!           [--trace-out <file>] [--append <file>] [--smoke]
//! benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The last line of standard output is the result object; everything else
//! goes to standard error.  The exit code is non-zero when a check fails.

mod compare;
mod dev_loop;
mod doc_stream;
mod engine_ops;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use engine_ops::Run;
use report::{RunResult, Values, LAYERS, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Input digests of `--seed 1`: the generators live in `dd-workloads` and in
/// `inputs.rs`; if either drifts, numbers from before and after no longer
/// describe the same inputs, so the run fails instead of reporting them.
const SEED_1_DIGESTS: [(&str, u64); 4] = [
    ("dev_loop", 3_801_641_310),
    ("doc_stream", 1_100_514_638),
    ("serve_direct", 629_473_846),
    ("serve_routed", 629_473_846),
];

/// A traced run must account for at least this share of its traced thread
/// time with spans below the thread roots.
const MIN_ACCOUNTED_SHARE: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where to write the span file of a traced run.
    trace_out: Option<PathBuf>,
    /// Where to bank the run for `benchmark compare`.
    append: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        append: None,
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or(format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.to_string(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--append" => parsed.append = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if parsed.smoke {
        // The whole set in under 15 s: not comparable with full-length runs.
        parsed.seconds = parsed.seconds.min(2.0);
    }
    Ok(parsed)
}

/// Scratch space for WAL/checkpoint directories: inside the working
/// directory (the benchmark writes nowhere else), removed on exit.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".bench_scratch").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only removes the parent when no concurrent run is using it.
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

/// Everything one run measured, and whether its checks passed.
struct Outcome {
    result: RunResult,
    values: Values,
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::create().map_err(|e| format!("creating scratch directory: {e}"))?;
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
        tracer: trace::Tracer::new(args.trace, Instant::now()),
        on_off: trace::OnOffWalls::default(),
        calibrator: stats::Calibrator::default(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut values: Values = match args.workload.as_str() {
        "dev_loop" => dev_loop::run(&mut run),
        "doc_stream" => doc_stream::run(&mut run),
        "serve_direct" => serve::run(&mut run, serve::Target::Direct),
        _ => serve::run(&mut run, serve::Target::Routed),
    };

    if let Some(digest) = values.get("gen.input_digest32") {
        let expected = SEED_1_DIGESTS
            .iter()
            .find(|(name, _)| *name == args.workload)
            .map(|(_, d)| *d as f64);
        eprintln!(
            "{}: input digest32 {digest} (seed {})",
            args.workload, args.seed
        );
        if args.seed == 1 && !args.smoke && Some(digest) != expected {
            run.problem(format!(
                "input digest {digest} differs from the pinned {expected:?}: the generated inputs drifted"
            ));
        }
    }
    values.set("harness.calibration_ms", run.calibrator.median_ms());
    match stats::peak_rss_mb() {
        Some(mb) => values.set("peak_rss_mb", mb),
        None => run.problem("VmHWM is not readable"),
    }
    if args.trace {
        trace_summary(&mut run, &mut values);
        if let Some(path) = &args.trace_out {
            run.tracer
                .write_json(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    let reported = run.problems.len();
    let result = RunResult::assemble(
        &args.workload,
        args.trace,
        args.smoke,
        (run.attempted, run.failed),
        &values,
        &mut run.problems,
    );
    for problem in &run.problems[reported..] {
        eprintln!("check failed: {problem}");
    }
    Ok(Outcome { result, values })
}

/// Layer self times, the share of traced thread time covered by spans below
/// the thread roots, and what keeping the spans cost.
fn trace_summary(run: &mut Run, values: &mut Values) {
    let layers = run.tracer.self_seconds_by_layer();
    let mut other = 0.0;
    for (layer, seconds) in &layers {
        if LAYERS.contains(layer) {
            values.set(format!("trace.self_s.{layer}"), *seconds);
        } else {
            other += seconds;
        }
    }
    values.set("trace.self_s.other", other);
    let thread_s = run.tracer.total_seconds_of(trace::ROOT);
    // A root's self time is time inside no span: unaccounted.
    let uncovered = run.tracer.self_seconds_of(trace::ROOT);
    let accounted = if thread_s > 0.0 {
        1.0 - uncovered / thread_s
    } else {
        0.0
    };
    values.set("trace.accounted_share", accounted);
    if accounted < MIN_ACCOUNTED_SHARE {
        run.problem(format!(
            "spans account for {:.1} % of the traced thread time, less than {:.0} %",
            accounted * 100.0,
            MIN_ACCOUNTED_SHARE * 100.0
        ));
    }
    values.set("trace.overhead_pct", run.on_off.overhead_pct());
    values.set("trace.spans", run.tracer.len() as f64);
    // Reported, not asserted: a later optimisation must be able to change
    // which layer dominates without editing the benchmark.
    let dominant = layers
        .iter()
        .filter(|(layer, _)| LAYERS.contains(layer))
        .max_by(|a, b| a.1.total_cmp(b.1));
    if let Some((layer, seconds)) = dominant {
        eprintln!(
            "trace: {} spans over {thread_s:.3} traced thread-seconds; dominant layer {layer} \
             ({seconds:.3} s); spans account for {:.1} %",
            run.tracer.len(),
            accounted * 100.0,
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let Outcome { result, values } = match run_workload(&parsed) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    // Every metric the run measured, by name, with its unit.
    for (name, value) in values.iter() {
        eprintln!("{name:<40} {value:>18.6} {}", report::unit_of(name));
    }
    eprintln!(
        "{}: attempted {} failed {} correct {}{}",
        parsed.workload,
        result.attempted,
        result.failed,
        result.correct,
        if parsed.smoke {
            " (smoke run: not comparable)"
        } else {
            ""
        }
    );
    if let Some(path) = &parsed.append {
        let outcome = (result.correct, result.attempted, result.failed);
        if let Err(err) = compare::append_run(
            path,
            &parsed.workload,
            parsed.seed,
            parsed.trace,
            outcome,
            &values,
        ) {
            eprintln!("benchmark: appending to {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
