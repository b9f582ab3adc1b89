//! The tentpole acceptance bar: a job's final report is **byte-identical**
//! whether it runs in-process, against a cold daemon, as a warm
//! re-submission, interleaved with concurrent jobs, or after a neighbouring
//! job was cancelled.  Sweeps and explorations stream no `record` events:
//! their records reach the client once, inside the `done` report.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use engine::{Engine, Scenario, SchedulerKind, SweepPlan, SweepReport};
use service::{plans, Client, Daemon, DaemonConfig, DaemonHandle, JobSpec, JobState};

static SOCKET_COUNTER: AtomicU32 = AtomicU32::new(0);

fn unique_socket(tag: &str) -> PathBuf {
    let n = SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sweepd-{tag}-{}-{n}.sock", std::process::id()))
}

fn start_daemon(tag: &str) -> DaemonHandle {
    Daemon::start(DaemonConfig::new(unique_socket(tag))).expect("daemon starts")
}

/// The paper matrix (Table I circuits at their Table II budgets under both
/// schedulers), without the debug-build-heavy cordic — the same shape the
/// CI smoke's `sweep --small` runs.
fn paper_scenarios() -> Vec<Scenario> {
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

const GEN_SPEC: &str = "family=random-dag,seed=7,count=50";

fn in_process_report(scenarios: Vec<Scenario>, gen: &[String]) -> SweepReport {
    let mut engine = Engine::new();
    engine.register_benchmarks(service::plans::generate_batch(gen).expect("valid specs"));
    let plan = SweepPlan::builder().scenarios(scenarios).build().expect("valid plan");
    engine.run(&plan, 2)
}

#[test]
fn paper_matrix_is_byte_identical_cold_warm_and_after_neighbor_cancellation() {
    let baseline_json = in_process_report(paper_scenarios(), &[]).to_json();

    let daemon = start_daemon("paper");
    let mut client = Client::connect(daemon.socket()).expect("connect");

    // Cold: the daemon's fresh cache must not change a single byte.
    let cold = client.submit_and_wait(JobSpec::sweep(paper_scenarios())).expect("cold job");
    assert_eq!(cold.state, JobState::Done);
    assert_eq!(cold.failures, Some(0));
    assert_eq!(cold.report.as_deref(), Some(baseline_json.as_str()));
    assert!(cold.records.is_empty(), "a sweep streams no records: {:?}", cold.records);
    assert!(cold.progress_events > 0, "progress streamed");
    let cold_cache = cold.job_cache.expect("cache delta");
    assert!(cold_cache.misses > 0, "a cold job computes prefixes");

    // Warm: byte-identical again, and every prefix lookup hits.
    let warm = client.submit_and_wait(JobSpec::sweep(paper_scenarios())).expect("warm job");
    assert_eq!(warm.report.as_deref(), Some(baseline_json.as_str()));
    assert!(warm.records.is_empty(), "a warm sweep streams no records");
    let warm_cache = warm.job_cache.expect("cache delta");
    assert_eq!(warm_cache.misses, 0, "warm re-submit misses nothing");
    assert!(warm_cache.hits > 0);
    assert_eq!(warm_cache.since(warm_cache).hit_rate(), 0.0, "sanity: since() zeroes itself");

    // Cancel a neighbouring gen job mid-queue/mid-run, then re-submit the
    // paper matrix: the interrupted neighbour must leave no trace.
    let socket = daemon.socket().to_path_buf();
    let neighbor = std::thread::spawn(move || {
        let mut client = Client::connect(&socket).expect("connect");
        let gen = vec!["family=mux-tree,seed=3,count=20".to_owned()];
        let job = plans::sweep_job(gen, Vec::new()).expect("valid spec");
        let id = client.submit(job.spec).expect("submit");
        (id, client.wait(id, |_, _| {}).expect("terminal event").state)
    });
    // Cancel it from this connection as soon as it is visible; whether it
    // is still queued or already running, the replayed matrix below must
    // not notice.
    let cancelled_state = loop {
        match client.request(&service::Request::Cancel { id: 3 }).expect("cancel") {
            service::Response::Cancelled { state, .. } => break state,
            service::Response::Error { .. } => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("unexpected response {other:?}"),
        }
    };
    assert!(matches!(cancelled_state, JobState::Queued | JobState::Running | JobState::Cancelled));
    let (neighbor_id, neighbor_state) = neighbor.join().expect("neighbor thread");
    assert_eq!(neighbor_id, 3);
    assert_eq!(neighbor_state, JobState::Cancelled);

    let replay = client.submit_and_wait(JobSpec::sweep(paper_scenarios())).expect("replay job");
    assert_eq!(replay.report.as_deref(), Some(baseline_json.as_str()));
    assert!(replay.records.is_empty(), "a replayed sweep streams no records");

    daemon.shutdown();
    daemon.join();
}

#[test]
fn generated_plan_is_byte_identical_even_interleaved_with_concurrent_jobs() {
    let gen = vec![GEN_SPEC.to_owned()];
    let spec = plans::sweep_job(gen.clone(), Vec::new()).expect("valid spec").spec;
    let JobSpec::Sweep { scenarios, .. } = &spec else { panic!("a sweep spec") };
    let baseline_json = in_process_report(scenarios.clone(), &gen).to_json();

    let daemon = start_daemon("gen");

    // Three clients race their submissions; the single-executor FIFO must
    // keep every result independent of arrival order.
    let socket = daemon.socket().to_path_buf();
    let target = {
        let socket = socket.clone();
        let spec = spec.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            client.submit_and_wait(spec).expect("target job")
        })
    };
    let paper = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            client.submit_and_wait(JobSpec::sweep(paper_scenarios())).expect("paper job")
        })
    };
    let explore = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            client
                .submit_and_wait(JobSpec::explore(vec![
                    engine::ExploreRequest::new("dealer").budgets([4, 6])
                ]))
                .expect("explore job")
        })
    };

    let target = target.join().expect("target thread");
    assert_eq!(target.state, JobState::Done);
    assert_eq!(target.failures, Some(0));
    assert_eq!(target.report.as_deref(), Some(baseline_json.as_str()));
    assert!(target.progress_events > 0, "progress streamed");
    assert!(target.records.is_empty(), "a generated sweep streams no records");

    let paper = paper.join().expect("paper thread");
    assert_eq!(paper.state, JobState::Done);
    let paper_baseline = in_process_report(paper_scenarios(), &[]).to_json();
    assert_eq!(paper.report.as_deref(), Some(paper_baseline.as_str()), "racing paper job");
    let explore = explore.join().expect("explore thread");
    assert_eq!(explore.state, JobState::Done);
    assert!(explore.report.is_some());
    assert!(explore.records.is_empty(), "an exploration streams no records");

    // Warm re-submission of the generated plan: byte-identical, 100% hits.
    let mut client = Client::connect(&socket).expect("connect");
    let warm = client.submit_and_wait(spec).expect("warm job");
    assert_eq!(warm.report.as_deref(), Some(baseline_json.as_str()));
    let cache = warm.job_cache.expect("cache delta");
    assert_eq!((cache.misses, cache.hits > 0), (0, true), "warm gen job is all hits");

    daemon.shutdown();
    daemon.join();
}

#[test]
fn explore_jobs_match_in_process_exploration_byte_for_byte() {
    let requests = vec![
        engine::ExploreRequest::new("dealer").budgets([4, 5]),
        engine::ExploreRequest::new("gcd"),
    ];
    let options = engine::ExploreOptions::new()
        .policy(engine::BudgetPolicy::Pareto)
        .ceiling(engine::BudgetCeiling::CriticalPathPlus(3))
        .voltage(engine::VoltagePolicy::Global(engine::DelayScaling::Quadratic));
    let baseline = Engine::new().explore(&requests, &options, 2).to_json();

    let daemon = start_daemon("explore");
    let mut client = Client::connect(daemon.socket()).expect("connect");
    let spec = JobSpec::Explore { gen: Vec::new(), requests, options };
    let cold = client.submit_and_wait(spec.clone()).expect("cold explore");
    assert_eq!(cold.state, JobState::Done);
    assert_eq!(cold.report.as_deref(), Some(baseline.as_str()));
    assert!(cold.records.is_empty(), "an exploration streams no records");
    let warm = client.submit_and_wait(spec).expect("warm explore");
    assert_eq!(warm.report.as_deref(), Some(baseline.as_str()));
    // Explorations bypass the prefix cache: each budget point is computed
    // from scratch, so neither job may look a prefix up, cold or warm.
    for job in [&cold, &warm] {
        assert_eq!(job.job_cache.expect("cache delta").lookups(), 0, "explore touched the cache");
    }

    // Fine-grained DVS jobs honour the same contract: the daemon's per-op
    // voltage exploration is byte-identical to the in-process run, cold
    // and warm alike.
    let dvs_requests = vec![engine::ExploreRequest::new("dealer")];
    let dvs_options = engine::ExploreOptions::new()
        .policy(engine::BudgetPolicy::FullRange)
        .ceiling(engine::BudgetCeiling::CriticalPathPlus(3))
        .voltage(engine::VoltagePolicy::PerOp(engine::VoltagePreset::ThreeLevel));
    let dvs_baseline = Engine::new().explore(&dvs_requests, &dvs_options, 2).to_json();
    let dvs_spec =
        JobSpec::Explore { gen: Vec::new(), requests: dvs_requests, options: dvs_options };
    let dvs_cold = client.submit_and_wait(dvs_spec.clone()).expect("cold dvs explore");
    assert_eq!(dvs_cold.state, JobState::Done);
    assert_eq!(dvs_cold.report.as_deref(), Some(dvs_baseline.as_str()));
    let dvs_warm = client.submit_and_wait(dvs_spec).expect("warm dvs explore");
    assert_eq!(dvs_warm.report.as_deref(), Some(dvs_baseline.as_str()));

    daemon.shutdown();
    daemon.join();
}
