//! The `service` workload: jobs against an in-process `sweepd`.
//!
//! Set-up starts a daemon with two engine workers, computes the
//! in-process report of every distinct job, and submits each job once so
//! the daemon's prefix cache is warm.  A pass then submits the seed's
//! interleaving of small jobs (the paper's small matrix) and large jobs
//! (generated random-dag sweeps with ~120 KB reports) over one client
//! connection, closed-loop: the next job is submitted when the previous
//! one is done.  The engine does almost no work on a warm cache, so the
//! wire layer dominates: small jobs stress per-message framing and
//! syscalls, large jobs per-byte parsing and emission.
//!
//! `light_ms` is the median small-job latency (submit to done), `heavy_ms`
//! the median large-job latency and `pass_s` one pass, all calibrated
//! (scaled by the speed factor of calibrations around the pass).  Every
//! report must be byte-identical to the in-process report of the same job.
//!
//! The traced run speaks the protocol over a raw socket with
//! `Request::to_line` and `Event::parse`, which separates client-side
//! parsing from time spent waiting on the daemon.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use engine::{BudgetPolicy, CacheStats, Engine, SweepPlan};
use service::{
    Client, Daemon, DaemonConfig, DaemonHandle, Event, JobSpec, JobState, Request, Response,
};

use crate::inputs::{service_inputs, Job, WORKERS};
use crate::trace::Tracer;
use crate::{median_or_zero, Outcome, RunArgs};

/// A distinct job and the in-process report it must reproduce.
pub struct JobCase {
    /// Label used as the request id.
    pub label: String,
    /// The job.
    pub spec: JobSpec,
    /// The in-process report JSON.
    pub reference: String,
}

/// A running daemon with a warm cache, the client connected to it, and
/// the jobs of one pass.  Dropping it stops the daemon.
pub struct Setup {
    client: Option<Client>,
    daemon: Option<DaemonHandle>,
    /// The socket the daemon listens on.
    socket: PathBuf,
    /// The small job.
    small: JobCase,
    /// The large jobs.
    large: Vec<JobCase>,
    /// One pass's job order.
    order: Vec<Job>,
    /// Nodes of every circuit the jobs sweep.
    nodes: usize,
}

impl Setup {
    /// The case a job of the interleaving stands for.
    fn case(&self, job: Job) -> &JobCase {
        match job {
            Job::Small => &self.small,
            Job::Large(i) => &self.large[i],
        }
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("the client lives as long as the set-up")
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
            daemon.join();
        }
    }
}

/// A socket path in the working directory, unique within the process.
fn socket_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!(".perfbench-{}-{n}.sock", std::process::id()))
}

/// The in-process report of a sweep job over `scenarios`.
fn reference(
    t: &mut Tracer,
    label: &str,
    scenarios: &[engine::Scenario],
    engine: &Engine,
) -> String {
    let plan = SweepPlan::builder()
        .scenarios(scenarios.iter().cloned())
        .budget_policy(BudgetPolicy::Fixed)
        .build()
        .expect("job scenarios form a valid plan");
    let request = t.request(label);
    let report = t.time("engine.run", request, || engine.run(&plan, WORKERS));
    t.time("engine.report_json", request, || report.to_json())
}

/// Builds the jobs and their references, starts the daemon and warms it.
///
/// # Errors
///
/// Daemon start-up, connection and warm-up failures, including a warm-up
/// report that differs from its reference.
pub fn setup(seed: u64, t: &mut Tracer) -> Result<Setup, String> {
    let inputs = service_inputs(seed);
    let mut engine = Engine::new();
    let small_plan = experiments::sweep::full_matrix_plan(true).expect("the small matrix builds");
    let small_scenarios = small_plan.scenarios().to_vec();
    let small = JobCase {
        label: "small".to_owned(),
        reference: reference(t, "small", &small_scenarios, &engine),
        spec: JobSpec::sweep(small_scenarios),
    };
    let mut nodes: usize = circuits::all_benchmarks().iter().map(|b| b.cdfg.node_count()).sum();
    let mut large = Vec::new();
    for (i, text) in inputs.large_specs.iter().enumerate() {
        let label = format!("large-{i}");
        let request = t.request(text);
        let batch = t.time("gen.generate", request, || {
            service::plans::generate_batch(std::slice::from_ref(text))
        })?;
        nodes += batch.iter().map(|b| b.cdfg.node_count()).sum::<usize>();
        let scenarios = service::plans::batch_scenarios(&batch);
        engine.register_benchmarks(batch);
        let json = reference(t, &label, &scenarios, &engine);
        let spec = JobSpec::Sweep {
            gen: vec![text.clone()],
            scenarios,
            policy: BudgetPolicy::Fixed,
            gate_level: None,
        };
        large.push(JobCase { label, spec, reference: json });
    }

    let socket = socket_path();
    let config = DaemonConfig { threads: WORKERS, ..DaemonConfig::new(&socket) };
    let daemon = Daemon::start(config).map_err(|e| format!("sweepd did not start: {e}"))?;
    let client = Client::connect(&socket).map_err(|e| e.to_string())?;
    let mut setup = Setup {
        client: Some(client),
        daemon: Some(daemon),
        socket,
        small,
        large,
        order: inputs.order,
        nodes,
    };
    for job in std::iter::once(Job::Small).chain((0..setup.large.len()).map(Job::Large)) {
        let spec = setup.case(job).spec.clone();
        let outcome = setup.client().submit_and_wait(spec).map_err(|e| e.to_string())?;
        if outcome.report.as_deref() != Some(setup.case(job).reference.as_str()) {
            return Err(format!(
                "the cold {} report differs from in-process",
                setup.case(job).label
            ));
        }
    }
    Ok(setup)
}

/// What one pass produced.
#[derive(Default)]
pub struct Pass {
    /// Small-job latencies, in ms.
    pub small_ms: Vec<f64>,
    /// Large-job latencies, in ms.
    pub large_ms: Vec<f64>,
    /// Pass wall time, in seconds.
    pub pass_s: f64,
    /// The jobs' summed cache deltas.
    pub cache: CacheStats,
    /// Report bytes received.
    pub report_bytes: usize,
    /// Wire bytes received (traced passes only).
    pub wire_bytes: usize,
    /// Wire lines received (traced passes only).
    pub lines: usize,
}

/// Compares a finished job with its case; returns the problem, if any.
pub fn verdict(
    case: &JobCase,
    state: JobState,
    failures: Option<usize>,
    report: Option<&str>,
) -> Option<String> {
    if state != JobState::Done || failures != Some(0) {
        Some(format!("{} ended {state:?} with failures {failures:?}", case.label))
    } else if report != Some(case.reference.as_str()) {
        Some(format!("{} report differs from the in-process report", case.label))
    } else {
        None
    }
}

fn add_cache(total: &mut CacheStats, delta: Option<CacheStats>) {
    if let Some(delta) = delta {
        total.hits += delta.hits;
        total.misses += delta.misses;
    }
}

/// One untraced pass through the library client.
pub fn pass(setup: &mut Setup, out: &mut Outcome) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    for job in setup.order.clone() {
        let spec = setup.case(job).spec.clone();
        let began = Instant::now();
        let outcome = setup.client().submit_and_wait(spec);
        let ms = began.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let case = setup.case(job);
        let problem = match &outcome {
            Ok(o) => {
                add_cache(&mut p.cache, o.job_cache);
                p.report_bytes += o.report.as_ref().map_or(0, String::len);
                verdict(case, o.state, o.failures, o.report.as_deref())
            }
            Err(e) => Some(format!("{}: {e}", case.label)),
        };
        if let Some(problem) = problem {
            out.fail(problem);
        }
        match job {
            Job::Small => p.small_ms.push(ms),
            Job::Large(_) => p.large_ms.push(ms),
        }
    }
    p.pass_s = start.elapsed().as_secs_f64();
    p
}

/// Reads one line, without its terminator.
fn read_line(reader: &mut BufReader<UnixStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed mid-stream".to_owned()),
        Ok(_) => Ok(line.trim_end_matches(['\n', '\r']).to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

/// Submits one job over a raw connection and drains its events, with
/// spans around emission, each blocking read and each parse.
fn raw_job(
    reader: &mut BufReader<UnixStream>,
    writer: &mut UnixStream,
    case: &JobCase,
    t: &mut Tracer,
    p: &mut Pass,
) -> Result<Option<String>, String> {
    let id = t.request(&case.label);
    let line = t.time("service.request_emit", id, || Request::Submit(case.spec.clone()).to_line());
    writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    writer.write_all(b"\n").map_err(|e| e.to_string())?;
    let line = t.time("service.server_wait", id, || read_line(reader))?;
    p.wire_bytes += line.len() + 1;
    p.lines += 1;
    let job = match t.time("service.event_parse", id, || Response::parse(&line))? {
        Response::Submitted { id } => id,
        other => return Err(format!("{}: unexpected response {other:?}", case.label)),
    };
    loop {
        let line = t.time("service.server_wait", id, || read_line(reader))?;
        p.wire_bytes += line.len() + 1;
        p.lines += 1;
        if let Event::Done { id: done, state, failures, job_cache, report, .. } =
            t.time("service.event_parse", id, || Event::parse(&line))?
        {
            if done != job {
                return Err(format!("{}: terminal event for job {done}", case.label));
            }
            add_cache(&mut p.cache, job_cache);
            p.report_bytes += report.as_ref().map_or(0, String::len);
            return Ok(verdict(case, state, failures, report.as_deref()));
        }
    }
}

/// One traced pass over a raw connection.
pub fn raw_pass(setup: &Setup, t: &mut Tracer, out: &mut Outcome) -> Pass {
    let mut p = Pass::default();
    let connection = UnixStream::connect(&setup.socket).and_then(|s| Ok((s.try_clone()?, s)));
    let (mut writer, reader) = match connection {
        Ok(pair) => pair,
        Err(e) => {
            out.fail(format!("raw connection failed: {e}"));
            return p;
        }
    };
    let mut reader = BufReader::new(reader);
    let start = Instant::now();
    for &job in &setup.order {
        let case = setup.case(job);
        let id = t.request(&case.label);
        let span = t.open("service.job", id);
        let began = Instant::now();
        let result = raw_job(&mut reader, &mut writer, case, t, &mut p);
        let ms = began.elapsed().as_secs_f64() * 1e3;
        t.close(span);
        out.attempted += 1;
        match result {
            Ok(None) => {}
            Ok(Some(problem)) | Err(problem) => out.fail(problem),
        }
        match job {
            Job::Small => p.small_ms.push(ms),
            Job::Large(_) => p.large_ms.push(ms),
        }
    }
    p.pass_s = start.elapsed().as_secs_f64();
    p
}

fn setup_or_fail(seed: u64, t: &mut Tracer, out: &mut Outcome) -> Option<Setup> {
    match setup(seed, t) {
        Ok(setup) => Some(setup),
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            None
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) =
        crate::repeated_setup(|_| setup_or_fail(args.seed, &mut Tracer::disabled(), &mut out));
    let Some(mut setup) = setup else { return out };
    let (mut small, mut large, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let (mut factors, mut wall) = (Vec::new(), Vec::new());
    crate::repeat_for(args.seconds, 3, |_| {
        let (p, factor) = crate::calibrated(|| pass(&mut setup, &mut out));
        small.extend(p.small_ms.iter().map(|ms| ms * factor));
        large.extend(p.large_ms.iter().map(|ms| ms * factor));
        total.push(p.pass_s * factor);
        wall.push(p.pass_s);
        factors.push(factor);
    });
    drop(setup);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.set("pass_s", median_or_zero(&total));
    out.set("light_ms", median_or_zero(&small));
    out.set("heavy_ms", median_or_zero(&large));
    out.line(format!(
        "passes: {} (seed {}), speed factor {:.4}, {:.4} s wall per pass",
        total.len(),
        args.seed,
        median_or_zero(&factors),
        median_or_zero(&wall)
    ));
    out.line(crate::describe("small_job_ms (calibrated)", "ms", &small, 990));
    out.line(crate::describe("large_job_ms (calibrated)", "ms", &large, 900));
    out
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: RunArgs, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup, _) = crate::repeated_setup(|last| {
        if last {
            setup_or_fail(args.seed, t, &mut out)
        } else {
            setup_or_fail(args.seed, &mut Tracer::disabled(), &mut out)
        }
    });
    let Some(mut setup) = setup else { return out };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut raw = Pass::default();
    let mut cache = CacheStats::default();
    crate::repeat_for(args.seconds, 2, |i| {
        let (p, factor) = if i % 2 == 0 {
            crate::calibrated(|| pass(&mut setup, &mut out))
        } else {
            crate::calibrated(|| raw_pass(&setup, t, &mut out))
        };
        add_cache(&mut cache, Some(p.cache));
        if i % 2 == 0 {
            plain.push(p.pass_s * factor);
        } else {
            traced.push(p.pass_s * factor);
            raw.wire_bytes += p.wire_bytes;
            raw.lines += p.lines;
            raw.report_bytes = p.report_bytes;
        }
    });
    let nodes = setup.nodes;
    let jobs_per_pass = setup.order.len();
    drop(setup);

    out.line(format!(
        "passes: {} untraced at {:.4} s, {} traced at {:.4} s (calibrated medians)",
        plain.len(),
        median_or_zero(&plain),
        traced.len(),
        median_or_zero(&traced)
    ));
    let passes = traced.len().max(1) as f64;
    let jobs = (jobs_per_pass as f64 * passes).max(1.0);
    let parse_ms = t.total_ms("service.event_parse");
    out.set("gen.generate_ms", t.total_ms("gen.generate"));
    out.set("cdfg.nodes", nodes as f64);
    out.set("engine.cache_hit_ratio", cache.hit_rate());
    out.set("engine.report_json_ms", t.total_ms("engine.report_json"));
    out.set("engine.report_bytes", raw.report_bytes as f64);
    out.set("service.event_parse_ms", parse_ms / passes);
    out.set("service.parse_mb_per_s", raw.wire_bytes as f64 / 1e6 / (parse_ms / 1e3).max(1e-9));
    out.set("service.wire_bytes_per_job", raw.wire_bytes as f64 / jobs);
    out.set("service.lines_per_job", raw.lines as f64 / jobs);
    out.set(
        "service.request_emit_us",
        t.total_ms("service.request_emit") * 1e3 / t.count("service.request_emit").max(1) as f64,
    );
    out.set("service.server_wait_ms", t.total_ms("service.server_wait") / passes);
    out.set("trace.overhead_pct", crate::overhead_pct(&traced, &plain));
    out
}
