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

use std::process::exit;

use engine::{BudgetCeiling, BudgetPolicy, ExploreRequest, VoltagePolicy};
use gen::GenSpec;
use power::DelayScaling;
use service::{Client, JobSpec};

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

    if let Some(socket) = daemon {
        if !matches!(format, Format::Json) {
            usage("--daemon requires --json (the daemon streams the JSON report verbatim)");
        }
        run_on_daemon(&socket, small, &specs, span, policy, voltage);
        return;
    }

    let options = experiments::pareto::default_options(span).policy(policy).voltage(voltage);
    let outcome = if specs.is_empty() {
        experiments::pareto::explore_paper(small, &options, threads)
    } else {
        if small {
            usage("--small only applies to the paper circuits; size generated runs with count=");
        }
        experiments::pareto::explore_generated(&specs, &options, threads)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pareto exploration failed: {e}");
            exit(1);
        }
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

/// Submits the exploration as one fully explicit job to a running `sweepd`
/// and prints the returned report verbatim — byte-identical to the
/// in-process `--json` output.
fn run_on_daemon(
    socket: &str,
    small: bool,
    specs: &[GenSpec],
    span: u32,
    policy: BudgetPolicy,
    voltage: VoltagePolicy,
) {
    let (gen, requests): (Vec<String>, Vec<ExploreRequest>) = if specs.is_empty() {
        (Vec::new(), experiments::pareto::paper_requests(small))
    } else {
        if small {
            usage("--small only applies to the paper circuits; size generated runs with count=");
        }
        let gen: Vec<String> = specs.iter().map(GenSpec::spec_string).collect();
        match service::plans::gen_requests(&gen) {
            Ok(requests) => (gen, requests),
            Err(e) => usage(&e),
        }
    };
    let spec = JobSpec::Explore {
        gen,
        requests,
        policy,
        ceiling: BudgetCeiling::CriticalPathPlus(span),
        voltage,
        branch_model: engine::BranchModel::Fair,
    };
    let outcome = Client::connect(socket)
        .and_then(|mut client| client.submit_and_wait(spec))
        .unwrap_or_else(|e| {
            eprintln!("pareto exploration failed: {e}");
            exit(1);
        });
    match (outcome.state, outcome.report) {
        (service::JobState::Done, Some(report)) => {
            print!("{report}");
            if outcome.failures.unwrap_or(0) > 0 {
                exit(1);
            }
        }
        (state, _) => {
            eprintln!(
                "pareto exploration failed: daemon job ended {state}{}",
                outcome.error.map_or_else(String::new, |e| format!(": {e}"))
            );
            exit(1);
        }
    }
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
