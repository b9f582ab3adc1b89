//! A blocking client for the sweep service.
//!
//! [`Client`] wraps one connection: send a [`Request`], read the
//! [`Response`], and — for submissions — drain the event stream into a
//! [`JobOutcome`].  The `sweepctl` binary and the `--daemon` modes of the
//! experiment binaries are thin shells around this module.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use engine::CacheStats;

use crate::admission::Rejection;
use crate::daemon::IO_BUFFER;
use crate::jobs::JobState;
use crate::protocol::{Event, JobSpec, Request, Response};

/// What can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ServiceError {
    /// The socket could not be reached or the connection broke.
    Io(io::Error),
    /// The daemon sent a line this client cannot parse, or an unexpected
    /// message kind.
    Protocol(String),
    /// The daemon answered with a typed rejection.
    Rejected(Rejection),
    /// The daemon answered with an error response.
    Daemon(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(err) => write!(f, "connection failed: {err}"),
            ServiceError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ServiceError::Rejected(rejection) => write!(f, "rejected: {rejection}"),
            ServiceError::Daemon(detail) => write!(f, "daemon error: {detail}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(err: io::Error) -> Self {
        ServiceError::Io(err)
    }
}

/// A finished job as observed from the submitting connection.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job id the daemon assigned.
    pub id: u64,
    /// The terminal state.
    pub state: JobState,
    /// Failed scenarios/walks inside the report.
    pub failures: Option<usize>,
    /// The job's cache delta (hits and misses attributable to it).
    pub job_cache: Option<CacheStats>,
    /// The full report JSON, byte-identical to an in-process run.
    pub report: Option<String>,
    /// The streamed record lines: one per event of an online session, in
    /// event order.  Sweeps and explorations stream none; their records
    /// are inside `report`.
    pub records: Vec<String>,
    /// Error detail for failed jobs.
    pub error: Option<String>,
    /// Number of progress events observed.
    pub progress_events: usize,
}

/// One blocking connection to the daemon.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// The last line read, reused across reads.
    line: String,
}

impl Client {
    /// Connects to the daemon's socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(socket: impl AsRef<Path>) -> Result<Client, ServiceError> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::with_capacity(IO_BUFFER, writer.try_clone()?);
        Ok(Client { reader, writer, line: String::new() })
    }

    /// Sends one request and reads its one response.
    ///
    /// For [`Request::Submit`] this returns after the
    /// submitted/rejected line — follow up with [`Client::wait`] to drain
    /// the event stream.
    ///
    /// # Errors
    ///
    /// I/O failures and unparseable responses.
    pub fn request(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.send_line(request.to_line())?;
        Response::parse(self.read_line()?).map_err(ServiceError::Protocol)
    }

    /// Submits a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Rejected`] for typed admission rejections,
    /// [`ServiceError::Daemon`] for error responses, plus the usual I/O and
    /// protocol failures.
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, ServiceError> {
        match self.request(&Request::Submit(spec))? {
            Response::Submitted { id } => Ok(id),
            Response::Rejected(rejection) => Err(ServiceError::Rejected(rejection)),
            Response::Error { detail } => Err(ServiceError::Daemon(detail)),
            other => Err(ServiceError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Drains the event stream after a submission until the job's terminal
    /// event, forwarding each progress tick to `on_progress`.
    ///
    /// # Errors
    ///
    /// I/O failures, unparseable events, or the stream ending without a
    /// terminal event.
    pub fn wait(
        &mut self,
        id: u64,
        mut on_progress: impl FnMut(usize, usize),
    ) -> Result<JobOutcome, ServiceError> {
        let mut records = Vec::new();
        let mut progress_events = 0usize;
        loop {
            match Event::parse(self.read_line()?).map_err(ServiceError::Protocol)? {
                Event::Progress { completed, total, .. } => {
                    progress_events += 1;
                    on_progress(completed, total);
                }
                Event::Record { json, .. } => records.push(json),
                Event::Done { id: done_id, state, failures, job_cache, report, error } => {
                    if done_id != id {
                        return Err(ServiceError::Protocol(format!(
                            "terminal event for job {done_id}, expected {id}"
                        )));
                    }
                    return Ok(JobOutcome {
                        id,
                        state,
                        failures,
                        job_cache,
                        report,
                        records,
                        error,
                        progress_events,
                    });
                }
            }
        }
    }

    /// [`Client::submit`] then [`Client::wait`].
    ///
    /// # Errors
    ///
    /// As for the two steps.
    pub fn submit_and_wait(&mut self, spec: JobSpec) -> Result<JobOutcome, ServiceError> {
        let id = self.submit(spec)?;
        self.wait(id, |_, _| {})
    }

    /// Sends one line, framed with its newline, as a single write.
    fn send_line(&mut self, mut line: String) -> Result<(), ServiceError> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    /// Reads the next line into the reused buffer and returns it without
    /// its terminator.
    fn read_line(&mut self) -> Result<&str, ServiceError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ServiceError::Protocol("connection closed mid-stream".to_owned()));
        }
        Ok(self.line.trim_end_matches(['\n', '\r']))
    }
}

/// Polls until the daemon's socket accepts connections, up to `timeout`.
/// Returns whether it became reachable — startup scripts and tests use this
/// instead of sleeping a fixed amount.
pub fn wait_for_socket(socket: impl AsRef<Path>, timeout: Duration) -> bool {
    let socket = socket.as_ref();
    let deadline = Instant::now() + timeout;
    loop {
        if UnixStream::connect(socket).is_ok() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
