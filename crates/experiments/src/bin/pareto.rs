//! Walks every circuit across its full feasible control-step budget range
//! and emits the non-dominated latency–power front under the scaled-delay
//! (DVS-style) energy model — the continuous version of Table II.
//!
//! ```text
//! cargo run --release -p experiments --bin pareto [-- --json|--csv]
//!     [--threads N] [--small] [--span N]
//!     [--policy fixed|full-range|pareto]
//!     [--voltage global-none|global-linear|global-quadratic|per-op-2|per-op-3|per-op-5]
//!     [--gen family=<name>,seed=<s>,count=<n>[,knob=v...]]...
//! ```
//!
//! * `--json` / `--csv` — machine-readable output instead of the pretty
//!   report (byte-identical across reruns and thread counts),
//! * `--threads N` — worker threads (default: one per CPU),
//! * `--small` — CI smoke configuration (no cordic, span 4),
//! * `--span N` — walk each circuit to `critical path + N` steps
//!   (default 8; 4 with `--small`),
//! * `--policy` — budget policy (default `pareto`: only front points;
//!   `full-range` keeps every point, `fixed` visits the paper budgets),
//! * `--voltage` — the voltage policy (default `global-quadratic`): a
//!   global scaled-delay energy law, or a per-op preset (`per-op-N`
//!   schedules each operation at its own supply level),
//! * `--gen SPEC` (repeatable) — explore generated circuits instead of the
//!   paper's four,
//! * `--daemon SOCKET` — run the exploration as a job on a `sweepd` daemon
//!   instead of in-process (requires `--json`; the printed report is
//!   byte-identical to the in-process one).
//!
//! Either way the exploration is built once, as one
//! `service::plans::explore_job`, and runs through `service::execute`:
//! in-process on a fresh engine with the generated circuits registered, or
//! as that same job in the daemon.

use std::process::exit;

use engine::{BudgetPolicy, VoltagePolicy};
use gen::GenSpec;
use power::DelayScaling;
use service::{plans, JobReport};

enum Format {
    Pretty,
    Json,
    Csv,
}

fn main() {
    let mut format = Format::Pretty;
    let mut threads = 0usize;
    let mut small = false;
    let mut span: Option<u32> = None;
    let mut policy = BudgetPolicy::Pareto;
    let mut voltage = VoltagePolicy::Global(DelayScaling::Quadratic);
    let mut specs: Vec<GenSpec> = Vec::new();
    let mut daemon: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--csv" => format = Format::Csv,
            "--small" => small = true,
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
            }
            "--span" => {
                span = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--span needs a non-negative integer")),
                );
            }
            "--policy" => {
                let text = args.next().unwrap_or_else(|| usage("--policy needs a value"));
                policy = BudgetPolicy::parse(&text)
                    .unwrap_or_else(|| usage(&format!("unknown policy `{text}`")));
            }
            "--voltage" => {
                let text = args.next().unwrap_or_else(|| usage("--voltage needs a value"));
                voltage = VoltagePolicy::parse(&text)
                    .unwrap_or_else(|| usage(&format!("unknown voltage policy `{text}`")));
            }
            "--gen" => {
                let text = args.next().unwrap_or_else(|| usage("--gen needs a spec"));
                match GenSpec::parse(&text) {
                    Ok(spec) => specs.push(spec),
                    Err(e) => usage(&e.to_string()),
                }
            }
            "--daemon" => {
                daemon = Some(args.next().unwrap_or_else(|| usage("--daemon needs a socket path")));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let span = span.unwrap_or(if small { 4 } else { 8 });
    if !specs.is_empty() && small {
        usage("--small only applies to the paper circuits; size generated runs with count=");
    }
    if daemon.is_some() && !matches!(format, Format::Json) {
        usage("--daemon requires --json (the daemon streams the JSON report verbatim)");
    }
    let options = experiments::pareto::default_options(span).policy(policy).voltage(voltage);
    let job = if specs.is_empty() {
        plans::explore_job(Vec::new(), experiments::pareto::paper_requests(small), &options)
    } else {
        plans::explore_job(specs.iter().map(GenSpec::spec_string).collect(), Vec::new(), &options)
    };
    let job = job.unwrap_or_else(|e| fail(&e));

    if let Some(socket) = daemon {
        // The report comes back verbatim: byte-identical to the in-process
        // `--json` output.
        let (report, failures) = job.submit(&socket).unwrap_or_else(|e| fail(&e));
        print!("{report}");
        if failures > 0 {
            exit(1);
        }
        return;
    }
    let (JobReport::Explore(report), _) = job.run(threads).unwrap_or_else(|e| fail(&e)) else {
        unreachable!("an explore job returns an exploration report");
    };

    match format {
        Format::Json => print!("{}", report.to_json()),
        Format::Csv => print!("{}", report.to_csv()),
        Format::Pretty => print!("{}", report.render()),
    }
    if report.failure_count() > 0 {
        exit(1);
    }
}

fn fail(problem: &str) -> ! {
    eprintln!("pareto exploration failed: {problem}");
    exit(1);
}

fn usage(problem: &str) -> ! {
    eprintln!("pareto: {problem}");
    eprintln!(
        "usage: pareto [--json|--csv] [--threads N] [--small] [--span N] [--daemon SOCKET] \
         [--policy fixed|full-range|pareto] \
         [--voltage global-none|global-linear|global-quadratic|per-op-2|per-op-3|per-op-5] \
         [--gen family=<name>,seed=<s>,count=<n>]..."
    );
    exit(2);
}
