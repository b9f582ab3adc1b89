//! The job manager: ids, states, the bounded FIFO queue and per-job
//! progress/cancellation handles.
//!
//! [`JobTable`] is the daemon's single source of truth about jobs.  It is
//! deliberately lock-agnostic — the daemon wraps it in a `Mutex` paired
//! with a `Condvar` — and it never performs I/O or touches the engine, so
//! its invariants are easy to state:
//!
//! * ids are assigned `1, 2, 3, …` in submission order and never reused,
//! * the queue holds only ids whose job is [`JobState::Queued`],
//! * a job's state moves strictly forward along
//!   `Queued → Running → {Done, Cancelled, Failed}` (with the one shortcut
//!   `Queued → Cancelled` for jobs cancelled before they ever ran).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use engine::CacheStats;

use crate::protocol::{Event, JobSpec, JobStatus};

/// What a job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A scenario sweep ([`engine::Engine::run`]).
    Sweep,
    /// A Pareto exploration ([`engine::Engine::explore`]).
    Explore,
    /// An online event-stream session ([`engine::online::run_stream`]).
    Online,
}

impl JobKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Sweep => "sweep",
            JobKind::Explore => "explore",
            JobKind::Online => "online",
        }
    }

    /// Parses a wire label.
    pub fn parse(text: &str) -> Option<Self> {
        [JobKind::Sweep, JobKind::Explore, JobKind::Online].into_iter().find(|k| k.label() == text)
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// Currently executing on the engine.
    Running,
    /// Finished; its report is final.
    Done,
    /// Cancelled before or during execution; it has no report.
    Cancelled,
    /// Aborted by an error (bad gen spec, plan validation); no report.
    Failed,
}

impl JobState {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parses a wire label.
    pub fn parse(text: &str) -> Option<Self> {
        [JobState::Queued, JobState::Running, JobState::Done, JobState::Cancelled, JobState::Failed]
            .into_iter()
            .find(|s| s.label() == text)
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Scenario-completion counters, shared between the executor's progress
/// callback (which may tick from any engine worker thread) and status
/// queries.
#[derive(Debug, Default)]
pub struct JobProgress {
    /// Work items completed so far.
    pub completed: AtomicUsize,
    /// Total work items in the (expanded) plan; 0 until the run starts.
    pub total: AtomicUsize,
}

/// One tracked job.
#[derive(Debug)]
struct Job {
    kind: JobKind,
    state: JobState,
    /// Consumed when the executor picks the job up.
    spec: Option<JobSpec>,
    cancel: Arc<AtomicBool>,
    progress: Arc<JobProgress>,
    /// Stream back to the submitting connection, while it is interested.
    events: Option<Sender<Event>>,
    /// The job's own cache delta, recorded at completion.
    job_cache: Option<CacheStats>,
    failures: Option<usize>,
    error: Option<String>,
}

/// Everything the executor needs to run one job, extracted under the table
/// lock and then used without it.
pub struct ClaimedJob {
    /// The job id.
    pub id: u64,
    /// The (consumed) specification.
    pub spec: JobSpec,
    /// Cooperative cancellation flag, checked between work items: sweep
    /// scenarios, exploration budget points or online events.
    pub cancel: Arc<AtomicBool>,
    /// Shared completion counters.
    pub progress: Arc<JobProgress>,
    /// Event stream to the submitter, if it is still listening.
    pub events: Option<Sender<Event>>,
}

/// What a cancellation request found.
#[derive(Debug)]
pub enum CancelOutcome {
    /// The job was queued; it will never run.  The submitter's stream (if
    /// any) is handed back so the daemon can send it a terminal event.
    WasQueued(Option<Sender<Event>>),
    /// The job is running; its cancel flag has been raised and the executor
    /// will finalize it at the next work-item boundary.
    RunningFlagRaised,
    /// The job had already reached this terminal state.
    AlreadyFinished(JobState),
    /// No such job id.
    Unknown,
}

/// The FIFO job table (see the module docs).
#[derive(Debug, Default)]
pub struct JobTable {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
}

impl JobTable {
    /// An empty table; the first submitted job gets id 1.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Number of jobs currently waiting in the queue (the running job does
    /// not count — admission bounds *waiting* work).
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues an admitted job and returns its id.
    pub fn enqueue(&mut self, spec: JobSpec, events: Option<Sender<Event>>) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.jobs.insert(
            id,
            Job {
                kind: spec.kind(),
                state: JobState::Queued,
                spec: Some(spec),
                cancel: Arc::new(AtomicBool::new(false)),
                progress: Arc::new(JobProgress::default()),
                events,
                job_cache: None,
                failures: None,
                error: None,
            },
        );
        self.queue.push_back(id);
        id
    }

    /// Claims the oldest queued job for execution, marking it running.
    pub fn claim_next(&mut self) -> Option<ClaimedJob> {
        let id = self.queue.pop_front()?;
        let job = self.jobs.get_mut(&id).expect("queued id is tracked");
        debug_assert_eq!(job.state, JobState::Queued);
        job.state = JobState::Running;
        Some(ClaimedJob {
            id,
            spec: job.spec.take().expect("queued job keeps its spec"),
            cancel: Arc::clone(&job.cancel),
            progress: Arc::clone(&job.progress),
            events: job.events.clone(),
        })
    }

    /// Moves a running job into a terminal state, recording its outcome.
    /// The event sender is dropped — the stream ends with whatever terminal
    /// event the executor sent before calling this.
    pub fn finish(
        &mut self,
        id: u64,
        state: JobState,
        job_cache: Option<CacheStats>,
        failures: Option<usize>,
        error: Option<String>,
    ) {
        debug_assert!(state.is_terminal());
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = state;
            job.job_cache = job_cache;
            job.failures = failures;
            job.error = error;
            job.events = None;
        }
    }

    /// Requests cancellation of a job (see [`CancelOutcome`]).
    pub fn cancel(&mut self, id: u64) -> CancelOutcome {
        let Some(job) = self.jobs.get_mut(&id) else {
            return CancelOutcome::Unknown;
        };
        match job.state {
            JobState::Queued => {
                self.queue.retain(|&queued| queued != id);
                job.state = JobState::Cancelled;
                job.spec = None;
                CancelOutcome::WasQueued(job.events.take())
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::Relaxed);
                CancelOutcome::RunningFlagRaised
            }
            state => CancelOutcome::AlreadyFinished(state),
        }
    }

    /// Cancels every queued job (daemon shutdown) and returns the streams of
    /// the cancelled submitters so they can be notified.
    pub fn cancel_all_queued(&mut self) -> Vec<(u64, Option<Sender<Event>>)> {
        let ids: Vec<u64> = self.queue.drain(..).collect();
        ids.into_iter()
            .map(|id| {
                let job = self.jobs.get_mut(&id).expect("queued id is tracked");
                job.state = JobState::Cancelled;
                job.spec = None;
                (id, job.events.take())
            })
            .collect()
    }

    /// A job's current status snapshot (without the daemon-global cache
    /// counters, which the daemon layer attaches).
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.jobs.get(&id).map(|job| JobStatus {
            id,
            kind: job.kind,
            state: job.state,
            completed: job.progress.completed.load(Ordering::Relaxed),
            total: job.progress.total.load(Ordering::Relaxed),
            job_cache: job.job_cache,
            failures: job.failures,
            error: job.error.clone(),
        })
    }

    /// Status snapshots of every tracked job, in id (submission) order.
    pub fn statuses(&self) -> Vec<JobStatus> {
        self.jobs.keys().map(|&id| self.status(id).expect("tracked id")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Scenario;

    fn spec(latency: u32) -> JobSpec {
        JobSpec::sweep(vec![Scenario::new("dealer", latency)])
    }

    #[test]
    fn ids_are_sequential_and_fifo_order_is_kept() {
        let mut table = JobTable::new();
        assert_eq!(table.enqueue(spec(4), None), 1);
        assert_eq!(table.enqueue(spec(5), None), 2);
        assert_eq!(table.queued_len(), 2);
        let first = table.claim_next().unwrap();
        assert_eq!(first.id, 1);
        assert_eq!(table.status(1).unwrap().state, JobState::Running);
        assert_eq!(table.claim_next().unwrap().id, 2);
        assert!(table.claim_next().is_none());
    }

    #[test]
    fn cancelling_a_queued_job_removes_it_from_the_queue() {
        let mut table = JobTable::new();
        table.enqueue(spec(4), None);
        table.enqueue(spec(5), None);
        assert!(matches!(table.cancel(1), CancelOutcome::WasQueued(None)));
        assert_eq!(table.status(1).unwrap().state, JobState::Cancelled);
        assert_eq!(table.queued_len(), 1);
        assert_eq!(table.claim_next().unwrap().id, 2, "job 1 never runs");
    }

    #[test]
    fn cancelling_a_running_job_raises_its_flag() {
        let mut table = JobTable::new();
        table.enqueue(spec(4), None);
        let claimed = table.claim_next().unwrap();
        assert!(!claimed.cancel.load(Ordering::Relaxed));
        assert!(matches!(table.cancel(1), CancelOutcome::RunningFlagRaised));
        assert!(claimed.cancel.load(Ordering::Relaxed));
        table.finish(1, JobState::Cancelled, None, None, None);
        assert!(matches!(table.cancel(1), CancelOutcome::AlreadyFinished(JobState::Cancelled)));
        assert!(matches!(table.cancel(99), CancelOutcome::Unknown));
    }

    #[test]
    fn statuses_cover_every_job_in_submission_order() {
        let mut table = JobTable::new();
        table.enqueue(spec(4), None);
        table.enqueue(spec(5), None);
        table.claim_next();
        table.finish(1, JobState::Done, None, Some(0), None);
        let statuses = table.statuses();
        assert_eq!(statuses.len(), 2);
        assert_eq!((statuses[0].id, statuses[0].state), (1, JobState::Done));
        assert_eq!((statuses[1].id, statuses[1].state), (2, JobState::Queued));
    }

    #[test]
    fn shutdown_cancels_every_queued_job() {
        let mut table = JobTable::new();
        table.enqueue(spec(4), None);
        table.enqueue(spec(5), None);
        table.claim_next();
        let cancelled = table.cancel_all_queued();
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].0, 2);
        assert_eq!(table.status(1).unwrap().state, JobState::Running, "running job unaffected");
        assert_eq!(table.status(2).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn labels_roundtrip() {
        for kind in [JobKind::Sweep, JobKind::Explore, JobKind::Online] {
            assert_eq!(JobKind::parse(kind.label()), Some(kind));
        }
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            assert_eq!(JobState::parse(state.label()), Some(state));
            assert_eq!(state.is_terminal(), !matches!(state, JobState::Queued | JobState::Running));
        }
        assert_eq!(JobKind::parse("nope"), None);
        assert_eq!(JobState::parse("nope"), None);
    }
}
