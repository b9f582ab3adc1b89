//! The one job runner: a [`JobSpec`] mapped onto the engine, whichever
//! transport carries it.
//!
//! The daemon's executor and the in-process runs of the `sweep` and
//! `pareto` binaries both call [`execute`], so a job is the same engine
//! call in both places: a sweep's scenarios go through the canonicalizing
//! plan builder with the job's budget policy and gate level, an
//! exploration walks under its [`engine::ExploreOptions`], and an online
//! job's stream spec is parsed and run as one session.  A [`Job`] is built once
//! (by the [`crate::plans`] builders) and then only chooses its transport:
//! [`Job::run`] in-process or [`Job::submit`] to a `sweepd`.

use std::path::Path;

use circuits::Benchmark;
use engine::{
    CacheStats, Engine, EventRecord, Hooks, OnlineReport, ParetoReport, SweepPlan, SweepReport,
};

use crate::client::Client;
use crate::jobs::JobState;
use crate::protocol::JobSpec;

/// The typed report of a finished job.
#[derive(Debug, Clone)]
pub enum JobReport {
    /// A sweep's records, summaries and front.
    Sweep(SweepReport),
    /// An exploration's per-circuit points and fronts.
    Explore(ParetoReport),
    /// An online session's event records and summary.
    Online(OnlineReport),
}

impl JobReport {
    /// Failed scenarios, budget points or events inside the report.
    pub fn failure_count(&self) -> usize {
        match self {
            JobReport::Sweep(report) => report.failure_count(),
            JobReport::Explore(report) => report.failure_count(),
            JobReport::Online(report) => report.summary.errors,
        }
    }

    /// The report JSON, the bytes a `done` event carries.
    pub fn to_json(&self) -> String {
        match self {
            JobReport::Sweep(report) => report.to_json(),
            JobReport::Explore(report) => report.to_json(),
            JobReport::Online(report) => report.to_json(),
        }
    }
}

/// Runs `spec` on `engine` with `threads` workers (0 = one per CPU) and
/// returns its report, or `None` when `hooks.cancel` stopped the run.
///
/// The circuits the spec's `gen` strings name must already be registered
/// on `engine`.  An online job runs its own session and leaves `engine`
/// alone; `on_record` sees each of its event records as the session
/// applies it, in event order.  Sweeps and explorations never call it.
///
/// # Errors
///
/// The plan builder's message for a sweep it refuses (a range budget
/// policy, an effective latency above [`engine::MAX_LATENCY`]), and the
/// parse or generation message for an online job's stream spec.
pub fn execute(
    engine: &Engine,
    spec: &JobSpec,
    threads: usize,
    hooks: Hooks<'_>,
    mut on_record: impl FnMut(&EventRecord),
) -> Result<Option<JobReport>, String> {
    match spec {
        JobSpec::Sweep { scenarios, policy, gate_level, .. } => {
            let mut builder =
                SweepPlan::builder().scenarios(scenarios.iter().cloned()).budget_policy(*policy);
            if let Some(gate) = gate_level {
                builder = builder.gate_level(gate.samples, gate.seed);
            }
            let plan = builder.build().map_err(|e| e.to_string())?;
            Ok(engine.run_controlled(&plan, threads, hooks).map(JobReport::Sweep))
        }
        JobSpec::Explore { requests, options, .. } => {
            Ok(engine.explore_controlled(requests, options, threads, hooks).map(JobReport::Explore))
        }
        JobSpec::Online { stream } => {
            let stream = gen::StreamSpec::parse(stream).map_err(|e| e.to_string())?;
            engine::online::run_stream(&stream, hooks, |record, _| on_record(record))
                .map(|report| report.map(JobReport::Online))
                .map_err(|e| e.to_string())
        }
    }
}

/// A job built once for either transport: the fully explicit spec a
/// daemon runs, plus the circuits its `gen` strings generate, which an
/// in-process run registers instead of generating them again.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job as it travels on the wire.
    pub spec: JobSpec,
    /// Every circuit of the spec's `gen` strings, in spec order.
    pub circuits: Vec<Benchmark>,
}

impl Job {
    /// Runs the job in-process through [`execute`], on a fresh engine with
    /// the job's circuits registered, and returns the report with the
    /// engine's cache counters.
    ///
    /// # Errors
    ///
    /// As for [`execute`].
    pub fn run(self, threads: usize) -> Result<(JobReport, CacheStats), String> {
        let mut engine = Engine::new();
        engine.register_benchmarks(self.circuits);
        let report = execute(&engine, &self.spec, threads, Hooks::default(), |_| {})?
            .expect("no cancel flag, no cancellation");
        Ok((report, engine.cache_stats()))
    }

    /// Runs the job on the `sweepd` listening on `socket` and returns the
    /// report JSON of the finished job, byte-identical to
    /// [`JobReport::to_json`] after [`Job::run`], with its failure count.
    ///
    /// # Errors
    ///
    /// Connection and protocol failures, and a job that ended cancelled
    /// or failed.
    pub fn submit(self, socket: impl AsRef<Path>) -> Result<(String, usize), String> {
        let outcome = Client::connect(socket)
            .and_then(|mut client| client.submit_and_wait(self.spec))
            .map_err(|e| e.to_string())?;
        match (outcome.state, outcome.report) {
            (JobState::Done, Some(report)) => Ok((report, outcome.failures.unwrap_or(0))),
            (state, _) => Err(format!(
                "daemon job ended {state}{}",
                outcome.error.map_or_else(String::new, |e| format!(": {e}"))
            )),
        }
    }
}
