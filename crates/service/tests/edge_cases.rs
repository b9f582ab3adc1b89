//! Edge-case backfill: admission during shutdown observed over the wire,
//! per-job cache deltas ([`engine::CacheStats::since`]) staying correct
//! across a cancelled job in between, hostile request lines (too deep,
//! too long) that must neither crash nor wedge the daemon, and jobs the
//! daemon must fail or refuse without losing the connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use engine::Scenario;
use service::daemon::MAX_REQUEST_LINE;
use service::{
    Client, Daemon, DaemonConfig, JobSpec, JobState, RejectReason, Request, Response, ServiceError,
};

fn start_daemon(tag: &str) -> service::DaemonHandle {
    let socket =
        std::env::temp_dir().join(format!("sweepd-edge-{tag}-{}.sock", std::process::id()));
    Daemon::start(DaemonConfig { socket, threads: 1, limits: Default::default() })
        .expect("daemon starts")
}

/// A generated job big enough (single engine thread, debug build) to be
/// observably mid-run when the tests act on it.
const SLOW_GEN: &str = "family=mux-tree,seed=3,count=60";

fn slow_job() -> JobSpec {
    service::plans::sweep_job(vec![SLOW_GEN.to_owned()], Vec::new()).expect("gen sweep").spec
}

fn poll_state(socket: &std::path::Path, id: u64, wanted: impl Fn(&service::JobStatus) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut client = Client::connect(socket).expect("connect for polling");
    loop {
        if let Response::Status { job, .. } =
            client.request(&Request::Status { id }).expect("status request")
        {
            if wanted(&job) {
                return;
            }
        }
        assert!(Instant::now() < deadline, "timed out polling job {id}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Shutdown that begins while jobs are queued: the queued job is
/// cancelled, and a submission racing in *after* shutdown started — on a
/// connection that was already open — gets the typed shutting-down
/// rejection, not a hangup and not a queue slot.
#[test]
fn mid_queue_shutdown_rejects_new_work_with_the_typed_reason() {
    let daemon = start_daemon("shutdown");
    let socket = daemon.socket().to_path_buf();

    // Keep a connection open from before the shutdown begins.
    let mut early_client = Client::connect(&socket).expect("connect before shutdown");

    // Occupy the executor; queue a second job behind it.
    let running = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            Client::connect(&socket).expect("connect").submit_and_wait(slow_job())
        })
    };
    poll_state(&socket, 1, |job| job.state == JobState::Running);
    let queued = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            Client::connect(&socket)
                .expect("connect")
                .submit_and_wait(JobSpec::sweep(vec![Scenario::new("dealer", 4)]))
        })
    };
    poll_state(&socket, 2, |job| job.state == JobState::Queued);

    daemon.shutdown();

    // The queued job never runs; its submitter sees a cancelled terminal.
    let queued = queued.join().expect("queued submitter").expect("queued outcome");
    assert_eq!(queued.state, JobState::Cancelled);
    assert!(queued.report.is_none());

    // The running job is asked to stop at its next scenario boundary.
    let running = running.join().expect("running submitter").expect("running outcome");
    assert_eq!(running.state, JobState::Cancelled, "shutdown cancels the running job");

    // A submission on the pre-shutdown connection is turned away with the
    // typed reason — the queue has room, but the daemon is draining.
    let err = early_client
        .submit(JobSpec::sweep(vec![Scenario::new("gcd", 5)]))
        .expect_err("post-shutdown submissions are rejected");
    match err {
        ServiceError::Rejected(rejection) => {
            assert_eq!(rejection.reason, RejectReason::ShuttingDown, "{rejection}");
        }
        other => panic!("expected a typed rejection, got {other}"),
    }

    daemon.join();
}

/// A cancelled job's prefixes land in the *global* cache counters, but a
/// later job's own delta ([`engine::CacheStats::since`] from its start
/// baseline) must not absorb them: the executor snapshots the baseline
/// when the job starts, after the cancelled job's counters settled.
#[test]
fn cancelled_jobs_do_not_leak_misses_into_the_next_jobs_delta() {
    let daemon = start_daemon("cache-delta");
    let socket = daemon.socket().to_path_buf();
    let small = JobSpec::sweep(vec![Scenario::new("dealer", 4), Scenario::new("gcd", 5)]);

    // Job 1: computes its prefixes cold.
    let first = Client::connect(&socket)
        .expect("connect")
        .submit_and_wait(small.clone())
        .expect("first job");
    assert_eq!(first.state, JobState::Done);
    let first_cache = first.job_cache.expect("finished jobs carry a delta");
    assert!(first_cache.misses > 0, "cold job computes: {first_cache:?}");

    // Job 2: a big generated job, cancelled mid-run.  Its partly computed
    // prefixes stay in the shared cache (they are correct and reusable),
    // but the job itself reports no delta.
    let submitter = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            Client::connect(&socket).expect("connect").submit_and_wait(slow_job())
        })
    };
    poll_state(&socket, 2, |job| job.state == JobState::Running && job.completed > 0);
    let response = Client::connect(&socket)
        .expect("connect")
        .request(&Request::Cancel { id: 2 })
        .expect("cancel request");
    assert!(matches!(response, Response::Cancelled { .. }));
    let cancelled = submitter.join().expect("submitter").expect("cancelled outcome");
    assert_eq!(cancelled.state, JobState::Cancelled);
    assert!(cancelled.job_cache.is_none(), "cancelled jobs report no delta");

    // The cancelled job's misses are visible globally …
    let Response::Jobs { cache: global, .. } =
        Client::connect(&socket).expect("connect").request(&Request::List).expect("list request")
    else {
        panic!("list answered unexpectedly")
    };
    assert!(
        global.misses > first_cache.misses,
        "the cancelled job computed prefixes: {global:?} vs {first_cache:?}"
    );

    // … but job 3 — identical to job 1 — sees a pure-hit delta of exactly
    // its own lookups, none of the cancelled job's.
    let third =
        Client::connect(&socket).expect("connect").submit_and_wait(small).expect("third job");
    assert_eq!(third.state, JobState::Done);
    let third_cache = third.job_cache.expect("finished jobs carry a delta");
    assert_eq!(third_cache.misses, 0, "everything was already cached: {third_cache:?}");
    assert_eq!(
        third_cache.hits,
        first_cache.hits + first_cache.misses,
        "the delta is exactly this job's lookups"
    );
    assert_eq!(third.report, first.report, "cache reuse never changes bytes");

    daemon.shutdown();
    daemon.join();
}

/// Sends `bytes` on a fresh raw connection and returns the daemon's first
/// answer together with the connection, to read what follows.
fn send_raw(socket: &Path, bytes: &[u8]) -> (Response, BufReader<UnixStream>) {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream.write_all(bytes).expect("send");
    let mut reader = BufReader::new(stream);
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("read the answer");
    (Response::parse(answer.trim_end()).expect("the answer is a response line"), reader)
}

/// The daemon still serves new connections and runs jobs.
fn assert_still_serving(socket: &Path) {
    let response = Client::connect(socket).expect("connect").request(&Request::List);
    assert!(matches!(response, Ok(Response::Jobs { .. })), "list answered {response:?}");
    let outcome = Client::connect(socket)
        .expect("connect")
        .submit_and_wait(JobSpec::sweep(vec![Scenario::new("dealer", 4)]))
        .expect("a job after the hostile line");
    assert_eq!(outcome.state, JobState::Done);
}

/// A submit line of a million `[` used to recurse until the connection
/// thread overflowed its stack and aborted the whole daemon.  It is now a
/// typed parse error answered on the wire.
#[test]
fn a_million_open_brackets_get_an_error_and_the_daemon_keeps_serving() {
    let daemon = start_daemon("deep");
    let socket = daemon.socket().to_path_buf();

    let line = format!("{{\"cmd\":\"submit\",\"job\":{}\n", "[".repeat(1_000_000));
    let (answer, mut connection) = send_raw(&socket, line.as_bytes());
    match answer {
        Response::Error { detail } => assert!(detail.contains("nesting deeper than"), "{detail}"),
        other => panic!("expected an error response, got {other:?}"),
    }
    // The same connection stays usable after a malformed line.
    connection.get_mut().write_all(b"{\"cmd\":\"list\"}\n").expect("send list");
    let mut next = String::new();
    connection.read_line(&mut next).expect("read the list answer");
    assert!(matches!(Response::parse(next.trim_end()), Ok(Response::Jobs { .. })), "{next}");

    assert_still_serving(&socket);
    daemon.shutdown();
    daemon.join();
}

/// A line that reaches the cap without a newline is rejected with the
/// typed `line-too-large` reason as soon as the cap is crossed, and the
/// connection is closed; other connections are unaffected.
#[test]
fn an_over_long_request_line_is_rejected_and_its_connection_closed() {
    let daemon = start_daemon("long-line");
    let socket = daemon.socket().to_path_buf();

    let flood = vec![b' '; MAX_REQUEST_LINE + 1];
    let (answer, mut connection) = send_raw(&socket, &flood);
    match answer {
        Response::Rejected(rejection) => {
            assert_eq!(rejection.reason, RejectReason::LineTooLarge, "{rejection}");
            assert_eq!(rejection.reason.label(), "line-too-large");
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    let mut rest = Vec::new();
    connection.read_to_end(&mut rest).expect("the daemon closes the connection");
    assert!(rest.is_empty(), "nothing follows the rejection");

    // A line of exactly the cap (newline excluded) is still read and
    // parsed: here it is whitespace, which is a parse error, not a
    // rejection.
    let mut at_cap = vec![b' '; MAX_REQUEST_LINE];
    at_cap.push(b'\n');
    let (answer, _) = send_raw(&socket, &at_cap);
    assert!(matches!(answer, Response::Error { .. }), "{answer:?}");

    assert_still_serving(&socket);
    daemon.shutdown();
    daemon.join();
}

/// A zero budget accepted from the wire is that budget's failure, not the
/// job's: the job ends `Done` with budget 0 listed among the walk's
/// failures, where a panic inside the timing analysis used to end it
/// `Failed` through the executor's panic containment.
#[test]
fn a_zero_explore_budget_fails_that_budget_not_the_job() {
    let daemon = start_daemon("zero-budget");
    let outcome = Client::connect(daemon.socket())
        .expect("connect")
        .submit_and_wait(JobSpec::explore(vec![
            engine::ExploreRequest::new("dealer").budgets([0, 6])
        ]))
        .expect("job outcome");
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    assert_eq!(outcome.failures, Some(1));
    let report = outcome.report.expect("done jobs carry a report");
    assert!(report.contains(r#"{"budget": 0, "error": "scheduling failed: "#), "{report}");
    assert!(report.contains(r#"{"budget": 6, "#), "{report}");
    daemon.shutdown();
    daemon.join();
}

/// An `absolute` ceiling of `u32::MAX` used to make the explorer plan about
/// 4.3 × 10⁹ budget points before mapping any.  It is now refused at parse
/// time with an error response naming the limit, and the next job on the
/// same connection runs to completion.
#[test]
fn an_explore_ceiling_above_max_latency_gets_an_error_and_the_next_job_completes() {
    let daemon = start_daemon("huge-ceiling");
    let mut client = Client::connect(daemon.socket()).expect("connect");
    let started = Instant::now();
    let err = client
        .submit(JobSpec::Explore {
            gen: Vec::new(),
            requests: vec![engine::ExploreRequest::new("dealer")],
            options: engine::ExploreOptions::new()
                .policy(engine::BudgetPolicy::FullRange)
                .ceiling(engine::BudgetCeiling::Absolute(u32::MAX)),
        })
        .expect_err("the ceiling is over the limit");
    match err {
        ServiceError::Daemon(detail) => {
            let limit = engine::MAX_LATENCY.to_string();
            assert!(detail.contains("4294967295") && detail.contains(&limit), "{detail}");
        }
        other => panic!("expected an error response, got {other}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5), "refused at parse time");

    let outcome = client
        .submit_and_wait(JobSpec::explore(vec![
            engine::ExploreRequest::new("dealer").budgets([4, 6])
        ]))
        .expect("the next job runs");
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    assert_eq!(outcome.failures, Some(0));
    daemon.shutdown();
    daemon.join();
}

/// The wire bounds a scenario's latency but not its pipeline depth, so
/// `latency × pipeline_depth` can pass parsing far above the limit (it
/// used to be scheduled at a saturated `u32::MAX` steps).  The plan
/// refuses it: the job ends `failed` with the plan's typed error naming
/// the limit, and the next job on the same connection runs to completion.
#[test]
fn a_sweep_job_over_the_effective_latency_limit_fails_and_the_next_job_completes() {
    let daemon = start_daemon("deep-pipeline");
    let mut client = Client::connect(daemon.socket()).expect("connect");
    let limit = engine::MAX_LATENCY;
    let outcome = client
        .submit_and_wait(JobSpec::sweep(vec![
            Scenario::new("dealer", limit).pipeline_depth(u32::MAX)
        ]))
        .expect("the job is admitted and ends");
    assert_eq!(outcome.state, JobState::Failed, "{:?}", outcome.report);
    let expected =
        engine::EngineError::LatencyTooLarge { latency: limit, pipeline_depth: u32::MAX };
    let error = outcome.error.expect("failed jobs carry an error");
    assert_eq!(error, expected.to_string());
    assert!(error.contains("MAX_LATENCY (4096 steps)"), "{error}");
    assert_eq!(outcome.report, None);

    let next = client
        .submit_and_wait(JobSpec::sweep(vec![Scenario::new("dealer", 6).pipeline_depth(2)]))
        .expect("the next job runs");
    assert_eq!(next.state, JobState::Done, "{:?}", next.error);
    assert_eq!(next.failures, Some(0));
    daemon.shutdown();
    daemon.join();
}

/// A sweep runs exactly its scenarios: a sweep job whose budget policy
/// would walk a range ends `failed` with the plan's typed error (it used
/// to end `done` with one scenario per budget), and the next job on the
/// same connection runs to completion.
#[test]
fn a_range_policy_sweep_job_fails_with_the_plan_error_and_the_next_job_completes() {
    let daemon = start_daemon("range-sweep");
    let mut client = Client::connect(daemon.socket()).expect("connect");
    let outcome = client
        .submit_and_wait(JobSpec::Sweep {
            gen: Vec::new(),
            scenarios: vec![Scenario::new("dealer", 6)],
            policy: engine::BudgetPolicy::FullRange,
            gate_level: None,
        })
        .expect("the job is admitted and ends");
    assert_eq!(outcome.state, JobState::Failed, "{:?}", outcome.report);
    let expected =
        engine::EngineError::RangePolicyOnSweep(engine::BudgetPolicy::FullRange).to_string();
    assert_eq!(outcome.error.as_deref(), Some(expected.as_str()));
    assert_eq!(outcome.report, None);

    let next = client
        .submit_and_wait(JobSpec::sweep(vec![Scenario::new("dealer", 6)]))
        .expect("the next job runs");
    assert_eq!(next.state, JobState::Done, "{:?}", next.error);
    assert_eq!(next.failures, Some(0));
    daemon.shutdown();
    daemon.join();
}
