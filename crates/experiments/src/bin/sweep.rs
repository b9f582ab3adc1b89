//! Runs the full scenario matrix (circuit × latency × scheduler × pipeline
//! depth × reordering × branch model) over all Table I circuits — or over
//! *generated* workloads — on the parallel sweep engine.
//!
//! ```text
//! cargo run --release -p experiments --bin sweep [-- --json|--csv]
//!     [--threads N] [--small] [--daemon SOCKET]
//!     [--gen family=<name>,seed=<s>,count=<n>[,knob=v...]]...
//! ```
//!
//! * `--json` / `--csv` — machine-readable output instead of the pretty
//!   report,
//! * `--threads N` — worker threads (default: one per CPU),
//! * `--small` — the CI smoke matrix (no cordic, no pipelining, fair
//!   probabilities only),
//! * `--gen SPEC` (repeatable) — replace the paper matrix with synthetic
//!   circuits from `crates/gen`; families are `random-dag`, `mux-tree`,
//!   `dsp-chain` and `cordic`, and each spec can set `width=`, `depth=`,
//!   `mux=` (permille), `taps=` and `iters=`.  Output is byte-identical
//!   across runs and thread counts for fixed specs.
//! * `--daemon SOCKET` — run the same matrix as a job on a `sweepd` daemon
//!   instead of in-process (requires `--json`; the printed report is
//!   byte-identical to the in-process one).
//!
//! Either way the matrix is built once, as one `service::plans::sweep_job`,
//! and runs through `service::execute`: in-process on a fresh engine with
//! the generated circuits registered, or as that same job in the daemon.

use std::process::exit;

use gen::GenSpec;
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

    if !specs.is_empty() && small {
        // --small shapes the paper matrix; silently ignoring it on the
        // generated path would surprise anyone adapting the CI smoke
        // invocation.  Size generated runs with `count=` instead.
        usage("--small only applies to the paper matrix; use --gen ...,count=N to size a generated run");
    }
    if daemon.is_some() && !matches!(format, Format::Json) {
        usage("--daemon requires --json (the daemon streams the JSON report verbatim)");
    }
    let job = if specs.is_empty() {
        experiments::sweep::full_matrix_plan(small)
            .map_err(|e| e.to_string())
            .and_then(|plan| plans::sweep_job(Vec::new(), plan.scenarios().to_vec()))
    } else {
        plans::sweep_job(specs.iter().map(GenSpec::spec_string).collect(), Vec::new())
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
    let (JobReport::Sweep(report), cache) = job.run(threads).unwrap_or_else(|e| fail(&e)) else {
        unreachable!("a sweep job returns a sweep report");
    };

    match format {
        Format::Json => print!("{}", report.to_json()),
        Format::Csv => print!("{}", report.to_csv()),
        Format::Pretty => {
            print!("{}", report.render());
            println!(
                "\n{} scenarios ({} failed); prefix cache: {} computed, {} reused",
                report.records.len(),
                report.failure_count(),
                cache.misses,
                cache.hits
            );
        }
    }
    if report.failure_count() > 0 {
        exit(1);
    }
}

fn fail(problem: &str) -> ! {
    eprintln!("sweep failed: {problem}");
    exit(1);
}

fn usage(problem: &str) -> ! {
    eprintln!("sweep: {problem}");
    eprintln!(
        "usage: sweep [--json|--csv] [--threads N] [--small] [--daemon SOCKET] \
         [--gen family=<name>,seed=<s>,count=<n>]..."
    );
    exit(2);
}
