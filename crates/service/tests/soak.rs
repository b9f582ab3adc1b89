//! Daemon soak test: seeded random interleavings of submit / cancel /
//! status / list against a **real** `sweepd` process, with sweep and
//! online jobs mixed.
//!
//! The contract under load is the same as solo: every job that completes
//! must produce a report **byte-identical** to an uncontended in-process
//! run of the same spec, online records must arrive in event order, and
//! after the storm drains the job table must account for every
//! submission exactly once — no leaked queued or running entries.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use engine::{Engine, Scenario, SweepPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{Client, JobOutcome, JobSpec, JobState, Request, Response};

struct DaemonProc {
    child: Child,
    socket: PathBuf,
}

impl DaemonProc {
    fn start(tag: &str) -> DaemonProc {
        let socket =
            std::env::temp_dir().join(format!("sweepd-soak-{tag}-{}.sock", std::process::id()));
        let child = Command::new(env!("CARGO_BIN_EXE_sweepd"))
            .arg("--socket")
            .arg(&socket)
            .arg("--threads")
            .arg("2")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("sweepd spawns");
        assert!(
            service::wait_for_socket(&socket, Duration::from_secs(10)),
            "sweepd did not start listening"
        );
        DaemonProc { child, socket }
    }

    fn shutdown(mut self) {
        let mut client = Client::connect(&self.socket).expect("connect for shutdown");
        let response = client.request(&Request::Shutdown).expect("shutdown request");
        assert_eq!(response, Response::ShuttingDown);
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

const ONLINE_A: &str = "family=mux-tree,seed=7,count=2;events=25,eseed=3,churn=150,rescale=150";
const ONLINE_B: &str = "family=random-dag,seed=5,count=2;events=30,eseed=8,churn=0,rescale=0";
const GEN_SWEEP: &str = "family=mux-tree,seed=11,count=2";

/// The job pool every soak client draws from (paper sweep, generated
/// sweep, and two online streams).
fn job_pool() -> Vec<JobSpec> {
    let gen_sweep =
        service::plans::sweep_job(vec![GEN_SWEEP.to_owned()], Vec::new()).expect("gen sweep");
    vec![
        JobSpec::sweep(vec![Scenario::new("dealer", 4), Scenario::new("gcd", 5)]),
        gen_sweep.spec,
        JobSpec::online(ONLINE_A),
        JobSpec::online(ONLINE_B),
    ]
}

/// The in-process report of one online stream, run without hooks.
fn online_report(stream: &gen::StreamSpec) -> String {
    engine::online::run_stream(stream, engine::Hooks::default(), |_, _| {})
        .expect("stream runs")
        .expect("no cancel flag")
        .to_json()
}

/// Uncontended in-process baseline report for each pool entry, in order.
fn baselines(pool: &[JobSpec]) -> Vec<String> {
    pool.iter()
        .map(|spec| match spec {
            JobSpec::Sweep { gen, scenarios, .. } => {
                let mut engine = Engine::new();
                engine.register_benchmarks(service::plans::generate_batch(gen).expect("gen batch"));
                let plan = SweepPlan::builder()
                    .scenarios(scenarios.iter().cloned())
                    .build()
                    .expect("plan builds");
                engine.run(&plan, 2).to_json()
            }
            JobSpec::Online { stream } => {
                let stream = gen::StreamSpec::parse(stream).expect("stream parses");
                online_report(&stream)
            }
            JobSpec::Explore { .. } => unreachable!("pool has no explore jobs"),
        })
        .collect()
}

/// One soak client: a seeded action sequence of submissions (sometimes
/// cancelled mid-flight), status probes and lists.  Returns every job
/// outcome it collected, tagged with its pool index.
fn soak_client(socket: PathBuf, seed: u64, pool: Vec<JobSpec>) -> Vec<(usize, JobOutcome)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = Vec::new();
    for _ in 0..5 {
        match rng.gen_range(0u32..10) {
            // Mostly: submit a random pool job and wait it out.
            0..=6 => {
                let which = rng.gen_range(0usize..pool.len());
                let outcome = Client::connect(&socket)
                    .expect("connect")
                    .submit_and_wait(pool[which].clone())
                    .expect("submit and wait");
                outcomes.push((which, outcome));
            }
            // Sometimes: submit, cancel from a second connection, wait.
            7 => {
                let which = rng.gen_range(0usize..pool.len());
                let mut submitter = Client::connect(&socket).expect("connect");
                let id = submitter.submit(pool[which].clone()).expect("submit");
                let response = Client::connect(&socket)
                    .expect("connect")
                    .request(&Request::Cancel { id })
                    .expect("cancel request");
                assert!(
                    matches!(response, Response::Cancelled { .. }),
                    "cancel answered {response:?}"
                );
                let outcome = submitter.wait(id, |_, _| {}).expect("wait after cancel");
                outcomes.push((which, outcome));
            }
            // Status probe of an arbitrary id (unknown ids are fine — the
            // daemon answers with a typed error, not a hangup).
            8 => {
                let id = rng.gen_range(1u64..20);
                let response = Client::connect(&socket)
                    .expect("connect")
                    .request(&Request::Status { id })
                    .expect("status request");
                assert!(
                    matches!(response, Response::Status { .. } | Response::Error { .. }),
                    "status answered {response:?}"
                );
            }
            _ => {
                let response = Client::connect(&socket)
                    .expect("connect")
                    .request(&Request::List)
                    .expect("list request");
                assert!(matches!(response, Response::Jobs { .. }), "list answered {response:?}");
            }
        }
    }
    outcomes
}

#[test]
fn interleaved_storm_keeps_reports_identical_and_leaks_no_jobs() {
    let pool = job_pool();
    let baselines = baselines(&pool);
    let daemon = DaemonProc::start("storm");

    let clients: Vec<_> = (0u64..3)
        .map(|seed| {
            let socket = daemon.socket.clone();
            let pool = pool.clone();
            std::thread::spawn(move || soak_client(socket, 0xDAC1996 + seed, pool))
        })
        .collect();
    let outcomes: Vec<(usize, JobOutcome)> =
        clients.into_iter().flat_map(|t| t.join().expect("soak client")).collect();
    assert!(!outcomes.is_empty(), "the seeded storm submitted nothing");

    let mut done = 0usize;
    for (which, outcome) in &outcomes {
        match outcome.state {
            JobState::Done => {
                done += 1;
                assert_eq!(outcome.failures, Some(0), "job of pool[{which}]: {outcome:?}");
                assert_eq!(
                    outcome.report.as_deref(),
                    Some(baselines[*which].as_str()),
                    "pool[{which}] report drifted under load"
                );
                // Online records stream live and must arrive in event order;
                // a sweep's records travel only inside its report.
                if let JobSpec::Online { stream } = &pool[*which] {
                    let events = gen::StreamSpec::parse(stream).expect("stream parses").events;
                    assert_eq!(outcome.records.len(), events, "pool[{which}] record count");
                    for (i, record) in outcome.records.iter().enumerate() {
                        assert!(
                            record.starts_with(&format!("{{\"index\": {i},")),
                            "pool[{which}] record {i} out of order: {record}"
                        );
                    }
                } else {
                    assert!(outcome.records.is_empty(), "pool[{which}] streamed sweep records");
                }
            }
            JobState::Cancelled => {
                assert!(outcome.report.is_none(), "cancelled jobs carry no report: {outcome:?}");
            }
            state => panic!("pool[{which}] ended {state}: {outcome:?}"),
        }
    }
    assert!(done > 0, "no job survived to completion; weaken the cancel mix");

    // Drain check: every submission is accounted for, terminally.
    let response =
        Client::connect(&daemon.socket).expect("connect").request(&Request::List).expect("list");
    let Response::Jobs { jobs, .. } = response else { panic!("list answered {response:?}") };
    assert_eq!(jobs.len(), outcomes.len(), "job table leaked or lost entries");
    for job in &jobs {
        assert!(job.state.is_terminal(), "job {} leaked in state {}", job.id, job.state);
    }

    daemon.shutdown();
}

/// Re-running a finished online job on the same daemon reproduces the
/// same bytes the uncontended baseline produced — the session holds no
/// daemon-global state.
#[test]
fn online_resubmission_on_a_warm_daemon_is_byte_stable() {
    let daemon = DaemonProc::start("warm-online");
    let baseline = online_report(&gen::StreamSpec::parse(ONLINE_A).expect("stream parses"));
    for round in 0..2 {
        let outcome = Client::connect(&daemon.socket)
            .expect("connect")
            .submit_and_wait(JobSpec::online(ONLINE_A))
            .expect("submit and wait");
        assert_eq!(outcome.state, JobState::Done, "round {round}: {outcome:?}");
        assert_eq!(outcome.report.as_deref(), Some(baseline.as_str()), "round {round}");
    }
    daemon.shutdown();
}
