//! Emits `BENCH_service.json`: throughput and latency of the sweep-service
//! daemon.
//!
//! Starts an in-process `sweepd`, submits the small paper matrix as a job
//! repeatedly over the socket, and measures:
//!
//! * **cold_ms** — latency of the first job on a fresh daemon (every
//!   prefix computed),
//! * **warm p50/p99 ms** — per-job latency distribution once the shared
//!   cache is hot (the steady state the daemon exists for: protocol +
//!   cache lookups + report emission),
//! * **jobs_per_sec** — sustained sequential throughput over the whole
//!   warm run,
//! * **warm_hit_rate** — fraction of prefix lookups served from cache in
//!   the final job (must be 1.0).
//!
//! Every warm report is byte-compared against the cold one before any
//! timing is trusted — a daemon that drifted would make the numbers
//! meaningless.  `--quick` submits fewer jobs (see the crate docs for the
//! command line).

use std::time::Instant;

use bench::Args;
use engine::{Scenario, SchedulerKind};
use service::{Client, Daemon, DaemonConfig, JobSpec, JobState};

/// The job every submission runs: the small paper matrix (no cordic),
/// both schedulers.
fn matrix() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for bench in circuits::all_benchmarks() {
        if bench.name == "cordic" {
            continue;
        }
        for &steps in &bench.control_steps {
            for scheduler in [SchedulerKind::ForceDirected, SchedulerKind::List] {
                scenarios.push(Scenario::new(bench.name.as_str(), steps).scheduler(scheduler));
            }
        }
    }
    scenarios
}

fn main() {
    let args = Args::parse();
    let jobs = if args.quick { 25 } else { 200 };

    let socket = std::env::temp_dir().join(format!("bench-service-{}.sock", std::process::id()));
    let daemon = Daemon::start(DaemonConfig::new(&socket)).expect("daemon starts");
    let mut client = Client::connect(&socket).expect("connect");

    let start = Instant::now();
    let cold = client.submit_and_wait(JobSpec::sweep(matrix())).expect("cold job");
    let cold_s = start.elapsed().as_secs_f64();
    assert_eq!(cold.state, JobState::Done);
    assert_eq!(cold.failures, Some(0));
    let reference = cold.report.clone().expect("report");

    let mut latencies = Vec::with_capacity(jobs);
    let mut last_cache = None;
    let sustained = Instant::now();
    for _ in 0..jobs {
        let start = Instant::now();
        let outcome = client.submit_and_wait(JobSpec::sweep(matrix())).expect("warm job");
        latencies.push(start.elapsed().as_secs_f64());
        assert_eq!(outcome.report.as_deref(), Some(&*reference), "warm report drifted");
        last_cache = outcome.job_cache;
    }
    let total_s = sustained.elapsed().as_secs_f64();
    let jobs_per_sec = jobs as f64 / total_s;

    latencies.sort_by(f64::total_cmp);
    let p50 = latencies[latencies.len() / 2];
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    let hit_rate = last_cache.expect("cache delta").hit_rate();
    assert!(
        last_cache.expect("cache delta").misses == 0,
        "steady-state jobs must be pure cache hits"
    );

    daemon.shutdown();
    daemon.join();

    let json = format!(
        "{{\n  \"bench\": \"service\",\n  \"schema\": 1,\n  \"mode\": \"{}\",\n  \
         \"scenarios_per_job\": {},\n  \"jobs\": {jobs},\n  \"cold_ms\": {:.2},\n  \
         \"warm_p50_ms\": {:.2},\n  \"warm_p99_ms\": {:.2},\n  \"jobs_per_sec\": {:.1},\n  \
         \"warm_hit_rate\": {hit_rate}\n}}\n",
        if args.quick { "quick" } else { "full" },
        matrix().len(),
        cold_s * 1e3,
        p50 * 1e3,
        p99 * 1e3,
        jobs_per_sec,
    );

    args.emit(
        &json,
        &format!(
            "{jobs_per_sec:.1} jobs/s sustained, warm p50 {:.2} ms (cold {:.2} ms)",
            p50 * 1e3,
            cold_s * 1e3
        ),
    );
}
