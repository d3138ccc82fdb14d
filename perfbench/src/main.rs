//! End-to-end and per-layer benchmark of the opthash system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-skewed|ingest-wide> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run exercises the whole system: the sharded ingest engine, then
//! the line-protocol server under a fleet of tenants, then learned
//! retraining on the query log. The two workloads differ in the arrival law
//! fed to the engine. See `README.md` for the workloads, the metrics and the
//! findings they measure.
//!
//! With `--trace 0` the last stdout line is a JSON object of the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics, read from
//! spans the benchmark records around its calls into each layer. Inputs
//! are generated from `--seed` before any set-up and are never timed.

mod ingest;
mod learned;
mod mem;
mod report;
mod sched;
mod stats;
mod trace;
mod wire;

use report::Report;
use std::io::Write;
use std::time::Instant;
use trace::Tracer;

/// The metrics of `BENCHMARK.json`, in its order (a test checks it).
const END_TO_END: [&str; 11] = [
    "setup_s",
    "ingest_mops",
    "query_p50_ns",
    "visible_p50_ms",
    "wire_p50_us",
    "wire_rtt_p50_us",
    "train_s",
    "retrain_s",
    "avg_error",
    "expected_error",
    "mem_mb",
];

const PER_LAYER: [&str; 36] = [
    "engine.ingest_call_us.p50",
    "engine.ingest_call_us.p99",
    "engine.aggregation_factor",
    "engine.applied_per_s",
    "engine.queued_mass.p99",
    "engine.buffered_mass.p50",
    "engine.epochs_per_s",
    "engine.flush_ms",
    "engine.new_ms",
    "engine.swap_ms",
    "sketch.single_thread_mops",
    "sketch.query_ns.p50",
    "protocol.parse_ns.p50",
    "registry.execute_ns.p50",
    "registry.execute_ns.p99",
    "registry.govern_ms.p99",
    "registry.governor_passes",
    "registry.folds",
    "registry.evictions",
    "server.overhead_us.p50",
    "server.max_cps",
    "solver.cold_ms",
    "solver.warm_ms.p50",
    "solver.sweeps",
    "solver.moves_evaluated",
    "solver.restarts_aborted",
    "solver.objective",
    "ml.featurize_ms",
    "ml.fit_ms",
    "ml.train_accuracy",
    "core.stored_share",
    "gen.late_us.max",
    "trace.overhead_pct",
    // End-to-end tails. Stalls of this host's virtual CPUs set them, so they
    // swung too far from run to run to carry a bound.
    "query_p999_ns",
    "visible_p99_ms",
    "wire_p99_us",
];

/// The arrival law fed to the ingest engine.
fn shape(workload: &str) -> Option<ingest::Shape> {
    match workload {
        "ingest-skewed" => Some(ingest::SKEWED),
        "ingest-wide" => Some(ingest::WIDE),
        _ => None,
    }
}

struct Args {
    shape: ingest::Shape,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        shape: shape(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// How long each path runs, as shares of `--seconds`.
struct Plan {
    ingest_s: f64,
    wire: wire::Plan,
    learned_days: usize,
}

impl Plan {
    fn new(seconds: f64) -> Self {
        Plan {
            ingest_s: seconds * 0.6,
            wire: wire::Plan {
                open_loop_s: seconds * 0.25,
                interactive_s: seconds * 0.1,
                rung_s: seconds * 0.02,
            },
            // A day (replay, evaluation, cold train and retrain) takes
            // about 1.3 s on the reference host.
            learned_days: ((seconds * 0.6).round() as usize).max(2),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <ingest-skewed|ingest-wide> --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.seconds);

    // Inputs first, untimed.
    let ingest_input = ingest::generate(args.shape, args.seed);
    let wire_input = wire::generate(plan.wire, args.seed);
    let learned_input = learned::generate(plan.learned_days, args.seed);

    let mut tracer = Tracer::new(args.trace, Instant::now(), 1);
    let mut report = Report::default();
    // Tracing overhead: in the traced run, the same ingest pass runs
    // untraced first.
    let untraced_mops = args.trace.then(|| {
        let mut untraced = Report::default();
        let mut quiet = Tracer::new(false, Instant::now(), 0);
        ingest::run(&ingest_input, plan.ingest_s, &mut quiet, &mut untraced);
        untraced.get("ingest_mops")
    });
    // The learned path goes last: it frees a few hundred MB on exit, which
    // would stall a pass after it.
    ingest::run(&ingest_input, plan.ingest_s, &mut tracer, &mut report);
    if let (Some(Some(off)), Some(on)) = (untraced_mops, report.get("ingest_mops")) {
        report.metric("trace.overhead_pct", (off / on - 1.0) * 100.0, "%");
    }
    wire::run(&wire_input, plan.wire, &mut tracer, &mut report);
    learned::run(&learned_input, &mut tracer, &mut report);
    report.finish();

    let names: &[&'static str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = report.select(names);
    if args.trace {
        write_trace(&tracer, &args);
    }
    let line = report.json(&metrics);
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "perfbench workload={} seed={} seconds={} trace={} fail_ratio={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.fail_ratio()
    );
    for (name, (value, unit)) in &metrics {
        let _ = writeln!(out, "  {name} = {value} {unit}");
    }
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
    record(&args, &line);
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Directory (relative to the working directory) for run records and
/// span dumps.
const OUT_DIR: &str = "perfbench-out";

fn write_trace(tracer: &Tracer, args: &Args) {
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{}-{}.csv", args.name, args.seed));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_csv(&path));
    match written {
        Ok(()) => {
            let totals = trace::self_time_by_name(tracer.spans());
            eprintln!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            );
            for (name, self_ns) in totals {
                eprintln!("trace: self {name} {:.3} ms", self_ns as f64 / 1e6);
            }
        }
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// Appends the result, with its workload and seed, to the run record.
fn record(args: &Args, line: &str) {
    let entry = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}}}\n",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let appended = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(std::path::Path::new(OUT_DIR).join("results.jsonl"))
            .and_then(|mut file| file.write_all(entry.as_bytes()))
    });
    if let Err(e) = appended {
        eprintln!("perfbench: could not record the result: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `section` in BENCHMARK.json.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(names_in(&json, "end_to_end"), END_TO_END);
        assert_eq!(names_in(&json, "per_layer"), PER_LAYER);
    }
}
