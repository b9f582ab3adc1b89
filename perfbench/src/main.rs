//! `perfbench` — the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload <design|service|online> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-pins <first seed> <last seed>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  Lines before
//! it describe the run.  The exit code is 0 only when every output passed
//! the correctness gate.  `--print-pins` prints the digest lines of
//! `pins.txt` for a range of seeds.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::trace::Tracer;
use perfbench::{design, gate, online, serve, Outcome, RunArgs, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <design|service|online> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --print-pins <first> <last>";

struct Args {
    workload: String,
    run: RunArgs,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        run: RunArgs {
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

/// Where a traced run writes its spans: under the build directory, which
/// the repository ignores.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    root.join("perfbench-spans").join(format!("{workload}-{seed}.jsonl"))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let run = args.run;
    if !run.trace {
        return match args.workload.as_str() {
            "design" => Ok(design::run(run)),
            "service" => Ok(serve::run(run)),
            "online" => Ok(online::run(run)),
            other => Err(format!("unknown workload `{other}`")),
        };
    }
    let mut tracer = Tracer::new();
    let mut out = match args.workload.as_str() {
        "design" => design::run_traced(run, &mut tracer),
        "service" => serve::run_traced(run, &mut tracer),
        "online" => online::run_traced(run, &mut tracer),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let layers = tracer.layer_self_ms();
    let total: f64 = layers.iter().map(|(_, ms)| ms).sum();
    for (layer, ms) in &layers {
        out.line(format!(
            "self time {layer}: {ms:.3} ms ({:.1}% of traced time)",
            ms / total.max(1e-9) * 100.0
        ));
    }
    let path = spans_path(&args.workload, run.seed);
    match tracer.write_jsonl(&path) {
        Ok(()) => {
            out.line(format!("spans: {} written to {}", tracer.spans().len(), path.display()))
        }
        Err(e) => out.line(format!("spans: could not write {}: {e}", path.display())),
    }
    Ok(out)
}

/// Prints the pins of every deterministic report for seeds `first..=last`.
fn print_pins(first: u64, last: u64) {
    let mut tracer = Tracer::disabled();
    let setup = design::setup(first, &mut tracer);
    let p = design::pass(&setup, &mut tracer);
    println!("sweep * {:016x}", gate::fnv1a64(p.sweep_json.as_bytes()));
    for seed in first..=last {
        let setup = design::setup(seed, &mut tracer);
        let p = design::pass(&setup, &mut tracer);
        println!("design {seed} {:016x}", gate::fnv1a64(p.explore_json.as_bytes()));
        let setup = online::setup(seed, &mut tracer);
        let p = online::pass(&setup, &[], &mut tracer);
        println!("online {seed} {:016x}", gate::fnv1a64(p.json.as_bytes()));
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--print-pins") {
        let seed = |i: usize| raw.get(i).and_then(|s| s.parse::<u64>().ok());
        let (Some(first), Some(last)) = (seed(1), seed(2)) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        print_pins(first, last);
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(raw.into_iter()).and_then(|args| Ok((run(&args)?, args)));
    let (out, args) = match outcome {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let names: &[(&str, &str)] = if args.run.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.run.seed,
        u8::from(args.run.trace)
    );
    for line in &out.lines {
        println!("  {line}");
    }
    for error in out.errors.iter().take(20) {
        println!("  INCORRECT: {error}");
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_ratio: {failed_ratio} ratio ({} of {} operations)",
        out.failed, out.attempted
    );
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name}: {value} {unit}");
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
