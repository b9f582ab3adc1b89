//! The daemon: one engine, one executor, many connections.
//!
//! # Architecture
//!
//! ```text
//!  clients ──(unix socket, NDJSON)──► accept thread ──► connection threads
//!                                                            │ submit/status/cancel
//!                                                            ▼
//!                                        Mutex<JobTable> + Condvar
//!                                                            │ FIFO claim
//!                                                            ▼
//!                                      single executor thread ──► RwLock<Engine>
//! ```
//!
//! A **single executor thread** runs jobs strictly in submission order, one
//! at a time.  That serialization is the determinism anchor: the shared
//! prefix cache only ever grows, a job's cache *delta* is unambiguously its
//! own, and interleaved submissions cannot reorder each other's scenario
//! results (parallelism lives *inside* a job, in the engine's deterministic
//! thread pool).
//!
//! Lock discipline: the engine lock is never acquired while holding the job
//! table lock (connection threads read engine stats *before* touching the
//! table; the executor runs jobs entirely outside the table lock), so the
//! two locks never deadlock.
//!
//! Robustness: a connection reads at most [`MAX_REQUEST_LINE`] bytes per
//! request, the JSON parser bounds nesting ([`crate::json::MAX_DEPTH`]),
//! job latencies are bounded at parse time and a sweep's effective
//! latencies when its plan is built ([`engine::MAX_LATENCY`]), and a job
//! that panics is contained at the job boundary — it ends `Failed` with
//! the panic message and the executor moves on to the next queued job.
//! Writes are buffered per connection: each line is framed as one write,
//! and a submit connection flushes once per burst of queued events.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

use engine::{Engine, ExploreOptions, Hooks, Progress, SessionState, SweepPlan};

use crate::admission::{AdmissionLimits, RejectReason, Rejection};
use crate::jobs::{CancelOutcome, ClaimedJob, JobState, JobTable};
use crate::protocol::{Event, JobSpec, Request, Response};

/// Longest request line the daemon reads, in bytes.  A line that reaches
/// it without a newline is answered with a typed
/// [`RejectReason::LineTooLarge`] and the connection is closed, so memory
/// stays bounded whatever a client sends.  The largest admissible
/// submission under the default limits (a 20 000-scenario sweep) is about
/// 2.6 MB, well inside the cap.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Socket buffer size for each connection's reader and writer, on both
/// ends of the wire.
pub(crate) const IO_BUFFER: usize = 64 << 10;

/// The write side of a connection: buffered, flushed once per response or
/// event burst.
type Connection = BufWriter<UnixStream>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// Engine threads per job (0 = all available cores).
    pub threads: usize,
    /// Admission bounds.
    pub limits: AdmissionLimits,
}

impl DaemonConfig {
    /// A default-limits configuration listening on `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DaemonConfig { socket: socket.into(), threads: 0, limits: AdmissionLimits::default() }
    }
}

/// The sweep-service daemon.  See the module docs for the thread layout.
pub struct Daemon;

impl Daemon {
    /// Binds the socket and starts the accept and executor threads.
    ///
    /// A stale socket file left by a crashed daemon is replaced; a socket
    /// with a *live* daemon behind it is an error.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let listener = bind(&config.socket)?;
        let shared = Arc::new(Shared {
            engine: RwLock::new(Engine::new()),
            registered: Mutex::new(BTreeSet::new()),
            jobs: Mutex::new(JobTable::new()),
            wake: Condvar::new(),
            limits: config.limits,
            threads: config.threads,
            shutdown: AtomicBool::new(false),
            socket: config.socket.clone(),
        });

        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || executor_loop(&shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };

        Ok(DaemonHandle {
            socket: config.socket,
            shared,
            acceptor: Some(acceptor),
            executor: Some(executor),
        })
    }
}

/// Handle to a running daemon: shut it down and wait for it.
pub struct DaemonHandle {
    socket: PathBuf,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The socket the daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Initiates shutdown, exactly as a wire `shutdown` request would:
    /// queued jobs are cancelled (their submitters get a terminal event),
    /// the running job's cancel flag is raised, and the accept loop exits.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Waits for the accept and executor threads and removes the socket
    /// file.  Call [`DaemonHandle::shutdown`] first (or send a wire
    /// `shutdown`), or this blocks forever.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(executor) = self.executor.take() {
            let _ = executor.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Shared {
    engine: RwLock<Engine>,
    /// Generator spec strings whose circuits are already registered.
    registered: Mutex<BTreeSet<String>>,
    jobs: Mutex<JobTable>,
    wake: Condvar,
    limits: AdmissionLimits,
    threads: usize,
    shutdown: AtomicBool,
    socket: PathBuf,
}

impl Shared {
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let cancelled = {
            let mut jobs = self.jobs.lock().expect("jobs lock");
            let cancelled = jobs.cancel_all_queued();
            // Ask the running job (if any) to stop at its next boundary.
            let running: Vec<u64> = jobs
                .statuses()
                .iter()
                .filter(|s| s.state == JobState::Running)
                .map(|s| s.id)
                .collect();
            for id in running {
                jobs.cancel(id);
            }
            cancelled
        };
        for (id, events) in cancelled {
            finish_job(self, &events, cancelled_event(id));
        }
        self.wake.notify_all();
        // Unblock the accept loop; the dummy connection is dropped there.
        let _ = UnixStream::connect(&self.socket);
    }
}

fn bind(socket: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(socket) {
        Ok(listener) => Ok(listener),
        Err(err) if err.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {}", socket.display()),
                ));
            }
            // Stale file from a crashed daemon: replace it.
            std::fs::remove_file(socket)?;
            UnixListener::bind(socket)
        }
        Err(err) => Err(err),
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: UnixListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(&shared, stream));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::with_capacity(IO_BUFFER, read_half);
    let mut writer = BufWriter::with_capacity(IO_BUFFER, stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Read at most one byte past the cap, so a client that never sends
        // a newline cannot grow the buffer without bound.
        match (&mut reader).take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let rejection = Rejection {
                reason: RejectReason::LineTooLarge,
                detail: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            };
            let _ = respond(&mut writer, Response::Rejected(rejection).to_line());
            return;
        }
        while matches!(line.last(), Some(b'\n' | b'\r')) {
            line.pop();
        }
        if line.is_empty() {
            continue;
        }
        let request = std::str::from_utf8(&line)
            .map_err(|_| "request line is not valid UTF-8".to_owned())
            .and_then(Request::parse);
        let request = match request {
            Ok(request) => request,
            Err(detail) => {
                if respond(&mut writer, Response::Error { detail }.to_line()).is_err() {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Submit(spec) => handle_submit(shared, &mut writer, spec),
            Request::Status { id } => {
                let cache = shared.engine.read().expect("engine lock").cache_stats();
                let status = shared.jobs.lock().expect("jobs lock").status(id);
                let response = match status {
                    Some(job) => Response::Status { cache, job },
                    None => Response::Error { detail: format!("no job {id}") },
                };
                respond(&mut writer, response.to_line()).is_ok()
            }
            Request::List => {
                let cache = shared.engine.read().expect("engine lock").cache_stats();
                let jobs = shared.jobs.lock().expect("jobs lock").statuses();
                respond(&mut writer, Response::Jobs { cache, jobs }.to_line()).is_ok()
            }
            Request::Cancel { id } => handle_cancel(shared, &mut writer, id),
            Request::Shutdown => {
                let _ = respond(&mut writer, Response::ShuttingDown.to_line());
                shared.initiate_shutdown();
                false
            }
        };
        if !keep_going {
            return;
        }
    }
}

fn handle_submit(shared: &Arc<Shared>, writer: &mut Connection, spec: JobSpec) -> bool {
    let (id, receiver) = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        let admitted = shared.limits.admit(
            spec.size(),
            jobs.queued_len(),
            shared.shutdown.load(Ordering::SeqCst),
        );
        if let Err(rejection) = admitted {
            drop(jobs);
            return respond(writer, Response::Rejected(rejection).to_line()).is_ok();
        }
        let (sender, receiver) = std::sync::mpsc::channel();
        let id = jobs.enqueue(spec, sender);
        (id, receiver)
    };
    shared.wake.notify_all();
    if respond(writer, Response::Submitted { id }.to_line()).is_err() {
        return false;
    }
    // Stream the job's events until its terminal event (or until every
    // sender is gone, which only happens after the job finished).  Each
    // wake-up writes every event already queued and then flushes once, so
    // events still go out live, but a burst (the plan-order record replay)
    // costs a few writes rather than one per line.
    while let Ok(first) = receiver.recv() {
        let mut done = false;
        for event in std::iter::once(first).chain(receiver.try_iter()) {
            done = matches!(event, Event::Done { .. });
            if write_line(writer, event.to_line()).is_err() {
                // Client went away; the job keeps running (cancel is explicit).
                return false;
            }
            if done {
                break;
            }
        }
        if writer.flush().is_err() {
            return false;
        }
        if done {
            break;
        }
    }
    true
}

fn handle_cancel(shared: &Arc<Shared>, writer: &mut Connection, id: u64) -> bool {
    let outcome = shared.jobs.lock().expect("jobs lock").cancel(id);
    let response = match outcome {
        CancelOutcome::WasQueued(events) => {
            finish_job(shared, &events, cancelled_event(id));
            Response::Cancelled { id, state: JobState::Cancelled }
        }
        CancelOutcome::RunningFlagRaised => Response::Cancelled { id, state: JobState::Running },
        CancelOutcome::AlreadyFinished(state) => Response::Cancelled { id, state },
        CancelOutcome::Unknown => Response::Error { detail: format!("no job {id}") },
    };
    respond(writer, response.to_line()).is_ok()
}

fn executor_loop(shared: &Arc<Shared>) {
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    loop {
        if shared.shutdown.load(Ordering::SeqCst) && jobs.queued_len() == 0 {
            return;
        }
        match jobs.claim_next() {
            Some(claimed) => {
                drop(jobs);
                let (id, events) = (claimed.id, claimed.events.clone());
                // A panicking job must not take the executor (and with it
                // every queued submitter) down: it fails like any other job.
                if let Err(panic) = contain(|| run_job(shared, claimed)) {
                    finish_job(shared, &events, failed_event(id, format!("job panicked: {panic}")));
                }
                jobs = shared.jobs.lock().expect("jobs lock");
            }
            None => jobs = shared.wake.wait(jobs).expect("jobs lock"),
        }
    }
}

/// Runs `f`, turning a panic into `Err` carrying the panic message.
fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|message| (*message).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-text panic payload".to_owned())
    })
}

/// Runs one claimed job end to end: register its generated circuits, run
/// it on the engine, stream records, record the outcome in the table and
/// send the terminal event.  Holds no job-table lock while running.
fn run_job(shared: &Arc<Shared>, claimed: ClaimedJob) {
    let ClaimedJob { id, spec, cancel, progress, events } = claimed;
    if let Err(detail) = register_gen_circuits(shared, spec.gen_specs()) {
        finish_job(shared, &events, failed_event(id, detail));
        return;
    }

    // Progress ticks arrive concurrently from engine workers; fetch_max
    // keeps the shared counter monotone.
    let on_progress = |p: Progress| {
        progress.completed.fetch_max(p.completed, Ordering::Relaxed);
        progress.total.fetch_max(p.total, Ordering::Relaxed);
        let _ = events.send(Event::Progress { id, completed: p.completed, total: p.total });
    };
    let hooks = Hooks { cancel: Some(&cancel), progress: Some(&on_progress) };

    let engine = shared.engine.read().expect("engine lock");
    let baseline = engine.cache_stats();
    let outcome = match &spec {
        JobSpec::Sweep { scenarios, policy, gate_level, .. } => {
            let mut builder =
                SweepPlan::builder().scenarios(scenarios.iter().cloned()).budget_policy(*policy);
            if let Some(gate) = gate_level {
                builder = builder.gate_level(gate.samples, gate.seed);
            }
            match builder.build() {
                Ok(plan) => Ok(engine.run_controlled(&plan, shared.threads, hooks).map(|report| {
                    (report.failure_count(), report.to_json(), record_lines(&report))
                })),
                Err(err) => Err(err.to_string()),
            }
        }
        JobSpec::Explore { requests, policy, ceiling, voltage, branch_model, .. } => {
            let options = ExploreOptions::new()
                .policy(*policy)
                .ceiling(*ceiling)
                .voltage(*voltage)
                .branch_model(*branch_model);
            Ok(engine
                .explore_controlled(requests, &options, shared.threads, hooks)
                .map(|report| (report.failure_count(), report.to_json(), Vec::new())))
        }
        JobSpec::Online { stream } => match gen::StreamSpec::parse(stream) {
            // Online records stream *live*, in event order, as the session
            // applies each event — there is no completion-order hazard to
            // shield the wire from (the session is strictly sequential), and
            // a power manager wants the repair outcome now, not at drain.
            Ok(stream_spec) => {
                let on_record = |record: &engine::online::EventRecord, _: &SessionState| {
                    let json = engine::online::record_json(record);
                    let _ = events.send(Event::Record { id, json });
                };
                match engine::online::run_stream(&stream_spec, hooks, on_record) {
                    Ok(Some(report)) => {
                        Ok(Some((report.summary.errors, report.to_json(), Vec::new())))
                    }
                    Ok(None) => Ok(None),
                    Err(err) => Err(err.to_string()),
                }
            }
            Err(err) => Err(err.to_string()),
        },
    };
    let job_cache = engine.cache_stats().since(baseline);
    drop(engine);

    let terminal = match outcome {
        Err(detail) => failed_event(id, detail),
        // Cancelled mid-run: partial results are discarded, never sent.
        Ok(None) => cancelled_event(id),
        Ok(Some((failures, report, records))) => {
            // Records replay in plan order — completion order never
            // reaches the wire.
            for json in records {
                let _ = events.send(Event::Record { id, json });
            }
            Event::Done {
                id,
                state: JobState::Done,
                failures: Some(failures),
                job_cache: Some(job_cache),
                report: Some(report),
                error: None,
            }
        }
    };
    finish_job(shared, &events, terminal);
}

/// Registers the circuits of every not-yet-seen generator spec.  Specs are
/// deduplicated by their exact string; the generator is deterministic, so
/// re-registering an equivalent spec would be a no-op anyway.
fn register_gen_circuits(shared: &Arc<Shared>, specs: &[String]) -> Result<(), String> {
    for text in specs {
        {
            let registered = shared.registered.lock().expect("registered lock");
            if registered.contains(text) {
                continue;
            }
        }
        let batch = crate::plans::generate_batch(std::slice::from_ref(text))?;
        let mut engine = shared.engine.write().expect("engine lock");
        engine.register_benchmarks(batch);
        drop(engine);
        shared.registered.lock().expect("registered lock").insert(text.clone());
    }
    Ok(())
}

fn record_lines(report: &engine::SweepReport) -> Vec<String> {
    report.records.iter().map(engine::report::record_json).collect()
}

fn cancelled_event(id: u64) -> Event {
    Event::Done {
        id,
        state: JobState::Cancelled,
        failures: None,
        job_cache: None,
        report: None,
        error: None,
    }
}

fn failed_event(id: u64, detail: String) -> Event {
    Event::Done {
        id,
        state: JobState::Failed,
        failures: None,
        job_cache: None,
        report: None,
        error: Some(detail),
    }
}

/// Records a job's terminal outcome in the table, then sends the terminal
/// event — in that order, so a status query the submitter sends after
/// reading the event already sees the terminal state.
fn finish_job(shared: &Shared, events: &Sender<Event>, terminal: Event) {
    if let Event::Done { id, state, failures, job_cache, error, .. } = &terminal {
        shared.jobs.lock().expect("jobs lock").finish(
            *id,
            *state,
            *job_cache,
            *failures,
            error.clone(),
        );
    }
    let _ = events.send(terminal);
}

/// Frames `line` with its newline and queues it as one write; the caller
/// flushes.
fn write_line(writer: &mut Connection, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Writes one response line and flushes it.
fn respond(writer: &mut Connection, line: String) -> io::Result<()> {
    write_line(writer, line)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_passes_values_through_and_turns_panics_into_messages() {
        assert_eq!(contain(|| 7), Ok(7));
        assert_eq!(contain(|| -> u8 { panic!("static message") }), Err("static message".into()));
        let job = 3;
        assert_eq!(
            contain(|| -> u8 { panic!("job {job} blew up") }),
            Err("job 3 blew up".to_owned())
        );
        assert_eq!(
            contain(|| -> u8 { std::panic::panic_any(42_u32) }),
            Err("non-text panic payload".to_owned())
        );
    }
}
