//! Command-line client for the sweep-service daemon.
//!
//! ```text
//! sweepctl --socket PATH submit [--gen SPEC]... [--case CIRCUIT:LATENCY]...
//!          [--explore [--policy fixed|full-range|pareto] [--voltage POLICY]]
//!          [--online STREAM] [--json]
//! sweepctl --socket PATH status ID
//! sweepctl --socket PATH list
//! sweepctl --socket PATH cancel ID
//! sweepctl --socket PATH shutdown
//! ```
//!
//! `submit` blocks until the job finishes and prints a summary line (or,
//! with `--json`, the byte-exact report on stdout).  Generator specs are
//! expanded client-side by the `service::plans` builders the `sweep` and
//! `pareto` binaries use — each generated circuit at every derived budget
//! under both schedulers for sweeps, each circuit across its own budget
//! list for explorations, then the `--case` entries — so the daemon runs
//! exactly what an in-process `sweep --gen`/`pareto --gen` would.
//! `--policy` and `--voltage` apply to `--explore` jobs only: a sweep runs
//! exactly its scenarios, and the explorer's walk is the one budget walk.
//!
//! `submit --online STREAM` runs an online event-stream session instead
//! (`gen` stream-spec syntax, e.g.
//! `family=mux-tree,seed=7,count=3;events=200,eseed=1`); the daemon streams
//! one record per event, in event order, as the session repairs each
//! schedule (sweeps and explorations stream none: their records arrive
//! once, in the report), and the final report is byte-identical to the one
//! an in-process `engine::online::run_stream` returns for the same stream.
//!
//! Exit codes: 0 success, 1 the job failed or was cancelled, 2 usage,
//! 3 connection/daemon/rejection errors.

use std::process::exit;

use engine::{BudgetPolicy, CacheStats, ExploreOptions, ExploreRequest, Scenario, VoltagePolicy};
use service::protocol::{JobStatus, Request, Response};
use service::{plans, Client, JobSpec, JobState, ServiceError};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let socket = take_flag_value(&mut args, "--socket")
        .unwrap_or_else(|| usage("--socket PATH is required"));
    if args.is_empty() {
        usage("missing command");
    }
    let command = args.remove(0);

    let mut client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(err) => fail(&err),
    };

    match command.as_str() {
        "submit" => submit(&mut client, args),
        "status" => {
            let id = parse_id(&args);
            match client.request(&Request::Status { id }) {
                Ok(Response::Status { cache, job }) => {
                    println!("{}", status_line(&job));
                    println!("{}", cache_line(cache));
                }
                Ok(other) => fail_response(other),
                Err(err) => fail(&err),
            }
        }
        "list" => match client.request(&Request::List) {
            Ok(Response::Jobs { cache, jobs }) => {
                for job in &jobs {
                    println!("{}", status_line(job));
                }
                println!("{}", cache_line(cache));
            }
            Ok(other) => fail_response(other),
            Err(err) => fail(&err),
        },
        "cancel" => {
            let id = parse_id(&args);
            match client.request(&Request::Cancel { id }) {
                Ok(Response::Cancelled { id, state }) => {
                    println!("cancelled id={id} state={state}")
                }
                Ok(other) => fail_response(other),
                Err(err) => fail(&err),
            }
        }
        "shutdown" => match client.request(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => println!("shutting down"),
            Ok(other) => fail_response(other),
            Err(err) => fail(&err),
        },
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn submit(client: &mut Client, mut args: Vec<String>) {
    let mut gen_specs: Vec<String> = Vec::new();
    let mut cases: Vec<String> = Vec::new();
    let mut explore = false;
    let mut online: Option<String> = None;
    let mut policy: Option<BudgetPolicy> = None;
    let mut voltage: Option<VoltagePolicy> = None;
    let mut json = false;

    while !args.is_empty() {
        let arg = args.remove(0);
        match arg.as_str() {
            "--gen" => {
                if args.is_empty() {
                    usage("--gen needs a spec");
                }
                gen_specs.push(args.remove(0));
            }
            "--case" => {
                if args.is_empty() {
                    usage("--case needs CIRCUIT:LATENCY");
                }
                cases.push(args.remove(0));
            }
            "--explore" => explore = true,
            "--online" => {
                if args.is_empty() {
                    usage("--online needs a stream spec");
                }
                online = Some(args.remove(0));
            }
            "--json" => json = true,
            "--policy" => {
                if args.is_empty() {
                    usage("--policy needs a name");
                }
                let text = args.remove(0);
                policy = Some(
                    BudgetPolicy::parse(&text)
                        .unwrap_or_else(|| usage(&format!("unknown policy `{text}`"))),
                );
            }
            "--voltage" => {
                if args.is_empty() {
                    usage("--voltage needs a policy label (e.g. global-quadratic, per-op-3)");
                }
                let text = args.remove(0);
                voltage = Some(
                    VoltagePolicy::parse(&text)
                        .unwrap_or_else(|| usage(&format!("unknown voltage policy `{text}`"))),
                );
            }
            other => usage(&format!("unknown submit argument `{other}`")),
        }
    }

    if !explore && (policy.is_some() || voltage.is_some()) {
        usage("--policy and --voltage only apply to --explore jobs");
    }
    let spec = if let Some(stream) = online {
        if explore || !gen_specs.is_empty() || !cases.is_empty() {
            usage("--online takes only a stream spec (and --json)");
        }
        // Validate client-side so typos fail fast with the parser's message
        // instead of a failed job.
        if let Err(err) = gen::StreamSpec::parse(&stream) {
            usage(&err.to_string());
        }
        JobSpec::online(stream)
    } else if explore {
        let requests = cases
            .iter()
            .map(|case| {
                let (circuit, budget) = parse_case(case);
                ExploreRequest::new(circuit).budgets([budget])
            })
            .collect();
        let mut options = ExploreOptions::new();
        options.policy = policy.unwrap_or(options.policy);
        options.voltage = voltage.unwrap_or(options.voltage);
        plans::explore_job(gen_specs, requests, &options).unwrap_or_else(|err| usage(&err)).spec
    } else {
        let scenarios = cases
            .iter()
            .map(|case| {
                let (circuit, latency) = parse_case(case);
                Scenario::new(circuit, latency)
            })
            .collect();
        plans::sweep_job(gen_specs, scenarios).unwrap_or_else(|err| usage(&err)).spec
    };

    let id = match client.submit(spec) {
        Ok(id) => id,
        Err(err) => fail(&err),
    };
    eprintln!("submitted id={id}");
    let outcome = match client.wait(id, |_, _| {}) {
        Ok(outcome) => outcome,
        Err(err) => fail(&err),
    };
    if json {
        if let Some(report) = &outcome.report {
            print!("{report}");
        }
    }
    eprintln!(
        "id={} state={} failures={} progress_events={}{}",
        outcome.id,
        outcome.state,
        outcome.failures.map_or_else(|| "-".to_owned(), |f| f.to_string()),
        outcome.progress_events,
        outcome.job_cache.map_or_else(String::new, |c| format!(
            " cache_hits={} cache_misses={}",
            c.hits, c.misses
        )),
    );
    if let Some(error) = &outcome.error {
        eprintln!("error: {error}");
    }
    match outcome.state {
        JobState::Done if outcome.failures.unwrap_or(0) == 0 => {}
        _ => exit(1),
    }
}

fn status_line(job: &JobStatus) -> String {
    let mut line = format!(
        "id={} kind={} state={} completed={} total={}",
        job.id, job.kind, job.state, job.completed, job.total
    );
    if let Some(cache) = job.job_cache {
        line.push_str(&format!(" cache_hits={} cache_misses={}", cache.hits, cache.misses));
    }
    if let Some(failures) = job.failures {
        line.push_str(&format!(" failures={failures}"));
    }
    if let Some(error) = &job.error {
        line.push_str(&format!(" error={error}"));
    }
    line
}

fn cache_line(cache: CacheStats) -> String {
    format!("cache hits={} misses={} entries={}", cache.hits, cache.misses, cache.entries)
}

fn parse_case(text: &str) -> (String, u32) {
    let Some((circuit, number)) = text.rsplit_once(':') else {
        usage(&format!("`{text}` is not CIRCUIT:NUMBER"));
    };
    let Ok(number) = number.parse() else {
        usage(&format!("`{text}` is not CIRCUIT:NUMBER"));
    };
    (circuit.to_owned(), number)
}

fn parse_id(args: &[String]) -> u64 {
    args.first().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage("expected a job id"))
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let index = args.iter().position(|a| a == flag)?;
    if index + 1 >= args.len() {
        usage(&format!("{flag} needs a value"));
    }
    args.remove(index);
    Some(args.remove(index))
}

fn fail(err: &ServiceError) -> ! {
    eprintln!("sweepctl: {err}");
    exit(3);
}

fn fail_response(response: Response) -> ! {
    match response {
        Response::Error { detail } => eprintln!("sweepctl: daemon error: {detail}"),
        other => eprintln!("sweepctl: unexpected response {other:?}"),
    }
    exit(3);
}

fn usage(problem: &str) -> ! {
    eprintln!("sweepctl: {problem}");
    eprintln!(
        "usage: sweepctl --socket PATH submit [--gen SPEC]... [--case CIRCUIT:LATENCY]... \
         [--explore [--policy fixed|full-range|pareto] \
         [--voltage global-none|global-linear|global-quadratic|per-op-2|per-op-3|per-op-5]] \
         [--online STREAM] [--json]\n\
         \u{20}      sweepctl --socket PATH status|cancel ID\n\
         \u{20}      sweepctl --socket PATH list|shutdown"
    );
    exit(2);
}
