//! The tentpole acceptance bar: a job's final report is **byte-identical**
//! whether it runs in-process, against a cold daemon, as a warm
//! re-submission, interleaved with concurrent jobs, or after a neighbouring
//! job was cancelled.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use engine::report::record_json;
use engine::{Engine, Scenario, SchedulerKind, SweepPlan, SweepReport};
use service::{Client, Daemon, DaemonConfig, DaemonHandle, JobSpec, JobState};

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
    let baseline = in_process_report(paper_scenarios(), &[]);
    let baseline_json = baseline.to_json();
    let baseline_records: Vec<String> = baseline.records.iter().map(record_json).collect();

    let daemon = start_daemon("paper");
    let mut client = Client::connect(daemon.socket()).expect("connect");

    // Cold: the daemon's fresh cache must not change a single byte.
    let cold = client.submit_and_wait(JobSpec::sweep(paper_scenarios())).expect("cold job");
    assert_eq!(cold.state, JobState::Done);
    assert_eq!(cold.failures, Some(0));
    assert_eq!(cold.report.as_deref(), Some(baseline_json.as_str()));
    assert_eq!(cold.records, baseline_records, "records stream in plan order");
    let cold_cache = cold.job_cache.expect("cache delta");
    assert!(cold_cache.misses > 0, "a cold job computes prefixes");

    // Warm: byte-identical again, and every prefix lookup hits.
    let warm = client.submit_and_wait(JobSpec::sweep(paper_scenarios())).expect("warm job");
    assert_eq!(warm.report.as_deref(), Some(baseline_json.as_str()));
    assert_eq!(warm.records, baseline_records);
    let warm_cache = warm.job_cache.expect("cache delta");
    assert_eq!(warm_cache.misses, 0, "warm re-submit misses nothing");
    assert!(warm_cache.hits > 0);
    assert_eq!(warm_cache.since(warm_cache).hit_rate(), 0.0, "sanity: since() zeroes itself");

    // Cancel a neighbouring gen job mid-queue/mid-run, then re-submit the
    // paper matrix: the interrupted neighbour must leave no trace.
    let socket = daemon.socket().to_path_buf();
    let neighbor = std::thread::spawn(move || {
        let mut client = Client::connect(&socket).expect("connect");
        let spec = JobSpec::Sweep {
            gen: vec!["family=mux-tree,seed=3,count=20".to_owned()],
            scenarios: service::plans::gen_scenarios(&[
                "family=mux-tree,seed=3,count=20".to_owned()
            ])
            .expect("valid spec"),
            policy: engine::BudgetPolicy::Fixed,
            gate_level: None,
        };
        let id = client.submit(spec).expect("submit");
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
    assert_eq!(replay.records, baseline_records);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn generated_plan_is_byte_identical_even_interleaved_with_concurrent_jobs() {
    let gen = vec![GEN_SPEC.to_owned()];
    let scenarios = service::plans::gen_scenarios(&gen).expect("valid spec");
    let baseline_json = in_process_report(scenarios.clone(), &gen).to_json();

    let daemon = start_daemon("gen");

    // Three clients race their submissions; the single-executor FIFO must
    // keep every result independent of arrival order.
    let socket = daemon.socket().to_path_buf();
    let target = {
        let socket = socket.clone();
        let gen = gen.clone();
        let scenarios = scenarios.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            client
                .submit_and_wait(JobSpec::Sweep {
                    gen,
                    scenarios,
                    policy: engine::BudgetPolicy::Fixed,
                    gate_level: None,
                })
                .expect("target job")
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

    let paper = paper.join().expect("paper thread");
    assert_eq!(paper.state, JobState::Done);
    let paper_baseline = in_process_report(paper_scenarios(), &[]).to_json();
    assert_eq!(paper.report.as_deref(), Some(paper_baseline.as_str()), "racing paper job");
    let explore = explore.join().expect("explore thread");
    assert_eq!(explore.state, JobState::Done);
    assert!(explore.report.is_some());

    // Warm re-submission of the generated plan: byte-identical, 100% hits.
    let mut client = Client::connect(&socket).expect("connect");
    let warm = client
        .submit_and_wait(JobSpec::Sweep {
            gen,
            scenarios,
            policy: engine::BudgetPolicy::Fixed,
            gate_level: None,
        })
        .expect("warm job");
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
    let spec = JobSpec::Explore {
        gen: Vec::new(),
        requests,
        policy: engine::BudgetPolicy::Pareto,
        ceiling: engine::BudgetCeiling::CriticalPathPlus(3),
        voltage: engine::VoltagePolicy::Global(engine::DelayScaling::Quadratic),
        branch_model: engine::BranchModel::Fair,
    };
    let cold = client.submit_and_wait(spec.clone()).expect("cold explore");
    assert_eq!(cold.state, JobState::Done);
    assert_eq!(cold.report.as_deref(), Some(baseline.as_str()));
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
    let dvs_spec = JobSpec::Explore {
        gen: Vec::new(),
        requests: dvs_requests,
        policy: engine::BudgetPolicy::FullRange,
        ceiling: engine::BudgetCeiling::CriticalPathPlus(3),
        voltage: engine::VoltagePolicy::PerOp(engine::VoltagePreset::ThreeLevel),
        branch_model: engine::BranchModel::Fair,
    };
    let dvs_cold = client.submit_and_wait(dvs_spec.clone()).expect("cold dvs explore");
    assert_eq!(dvs_cold.state, JobState::Done);
    assert_eq!(dvs_cold.report.as_deref(), Some(dvs_baseline.as_str()));
    let dvs_warm = client.submit_and_wait(dvs_spec).expect("warm dvs explore");
    assert_eq!(dvs_warm.report.as_deref(), Some(dvs_baseline.as_str()));

    daemon.shutdown();
    daemon.join();
}
