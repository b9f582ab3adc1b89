//! The typed newline-delimited-JSON wire protocol.
//!
//! One message is one JSON object on one line.  Clients send [`Request`]
//! lines; the daemon answers each request with exactly one [`Response`]
//! line, and a successful `submit` additionally streams [`Event`] lines on
//! the same connection until the job reaches a terminal state.
//!
//! # Determinism contract
//!
//! The protocol is designed so a job's results are byte-identical no matter
//! how the daemon is feeling:
//!
//! * A submission carries its work list **fully explicit** — every sweep
//!   scenario (or explore request) spelled out, plus the `gen` spec strings
//!   naming any generated circuits the daemon must register.  The daemon
//!   runs it through [`crate::execute`], the function an in-process run
//!   calls, so both build the same plan by construction.
//! * A sweep or exploration streams progress and then one terminal `done`
//!   event carrying the whole report; its records cross the wire once,
//!   inside that report.  Only an online session streams
//!   [`Event::Record`] lines, one per event, live in event order.
//! * Report payloads travel as pre-rendered JSON *strings* (escaped, one
//!   line), so the daemon's byte-exact [`engine::SweepReport::to_json`]
//!   output reaches the client without any re-serialization.

use std::borrow::Cow;

use engine::{
    BranchModel, BudgetCeiling, BudgetPolicy, CacheStats, ExploreOptions, ExploreRequest,
    GateLevelSpec, Scenario, SchedulerKind, VoltagePolicy, MAX_LATENCY,
};

use crate::admission::{RejectReason, Rejection};
use crate::jobs::{JobKind, JobState};
use crate::json::Json;

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; the connection then receives the event stream.
    Submit(JobSpec),
    /// Query one job's status.
    Status {
        /// The job id.
        id: u64,
    },
    /// List every tracked job.
    List,
    /// Cancel a queued or running job.
    Cancel {
        /// The job id.
        id: u64,
    },
    /// Stop accepting work, cancel queued jobs and exit.
    Shutdown,
}

/// A fully explicit job specification (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A scenario sweep.
    Sweep {
        /// Generator spec strings ([`gen::GenSpec::parse`] syntax) for
        /// circuits the daemon must register before running.
        gen: Vec<String>,
        /// The explicit scenario list.
        scenarios: Vec<Scenario>,
        /// Budget policy.  A sweep runs exactly its scenarios, so only
        /// `fixed` runs; any other value ends the job `failed` with
        /// [`engine::EngineError::RangePolicyOnSweep`].
        policy: BudgetPolicy,
        /// Optional gate-level simulation request.
        gate_level: Option<GateLevelSpec>,
    },
    /// A Pareto exploration.
    Explore {
        /// Generator spec strings, as for sweeps.
        gen: Vec<String>,
        /// The explicit exploration requests, in report order.
        requests: Vec<ExploreRequest>,
        /// Budget policy, ceiling, voltage policy and branch model; on the
        /// wire they are four keys of the job object.
        options: ExploreOptions,
    },
    /// An online event-stream session with incremental schedule repair.
    Online {
        /// The stream spec string ([`gen::StreamSpec::parse`] syntax); it
        /// names both the circuit batch and the event sequence, so the
        /// daemon-side session is byte-identical to an in-process run.
        stream: String,
    },
}

impl JobSpec {
    /// A plain sweep job: no generated circuits, fixed budgets, no
    /// gate-level simulation.
    pub fn sweep(scenarios: Vec<Scenario>) -> JobSpec {
        JobSpec::Sweep { gen: Vec::new(), scenarios, policy: BudgetPolicy::Fixed, gate_level: None }
    }

    /// A plain exploration job with default options.
    pub fn explore(requests: Vec<ExploreRequest>) -> JobSpec {
        JobSpec::Explore { gen: Vec::new(), requests, options: ExploreOptions::default() }
    }

    /// An online session job over a stream spec string.
    pub fn online(stream: impl Into<String>) -> JobSpec {
        JobSpec::Online { stream: stream.into() }
    }

    /// What kind of job this is.
    pub fn kind(&self) -> JobKind {
        match self {
            JobSpec::Sweep { .. } => JobKind::Sweep,
            JobSpec::Explore { .. } => JobKind::Explore,
            JobSpec::Online { .. } => JobKind::Online,
        }
    }

    /// The generator specs the daemon must register.  Online jobs carry
    /// their circuit batch inside the stream spec instead.
    pub fn gen_specs(&self) -> &[String] {
        match self {
            JobSpec::Sweep { gen, .. } | JobSpec::Explore { gen, .. } => gen,
            JobSpec::Online { .. } => &[],
        }
    }

    /// Admission size: scenarios for a sweep (exactly the scenarios it
    /// runs, one progress item each), explore requests for an exploration
    /// (before its budget walk, so not its progress items: an exploration
    /// ticks once per budget point), events for an online session (0 if
    /// the spec does not parse — execution rejects it with a typed failure
    /// anyway).
    pub fn size(&self) -> usize {
        match self {
            JobSpec::Sweep { scenarios, .. } => scenarios.len(),
            JobSpec::Explore { requests, .. } => requests.len(),
            JobSpec::Online { stream } => {
                gen::StreamSpec::parse(stream).map_or(0, |spec| spec.events)
            }
        }
    }

    fn to_json(&self) -> Json<'_> {
        match self {
            JobSpec::Sweep { gen, scenarios, policy, gate_level } => {
                let mut fields = vec![
                    ("kind", Json::str("sweep")),
                    ("gen", string_array(gen)),
                    ("scenarios", Json::Array(scenarios.iter().map(scenario_to_json).collect())),
                    ("policy", Json::str(policy.label())),
                ];
                if let Some(gate) = gate_level {
                    fields.push((
                        "gate_level",
                        Json::object([
                            ("samples", Json::number(gate.samples)),
                            ("seed", Json::number(gate.seed)),
                        ]),
                    ));
                }
                Json::object(fields)
            }
            JobSpec::Explore { gen, requests, options } => Json::object([
                ("kind", Json::str("explore")),
                ("gen", string_array(gen)),
                ("requests", Json::Array(requests.iter().map(request_to_json).collect())),
                ("policy", Json::str(options.policy.label())),
                ("ceiling", ceiling_to_json(options.ceiling)),
                ("voltage", Json::str(options.voltage.label())),
                ("branch_model", Json::str(options.branch_model.label())),
            ]),
            JobSpec::Online { stream } => {
                Json::object([("kind", Json::str("online")), ("stream", Json::str(stream))])
            }
        }
    }

    fn from_json(json: &Json) -> Result<JobSpec, String> {
        let kind = require_str(json, "kind")?;
        if kind == "online" {
            return Ok(JobSpec::Online { stream: require_str(json, "stream")?.to_owned() });
        }
        let gen = json.get("gen").map(parse_string_array).transpose()?.unwrap_or_default();
        let policy = BudgetPolicy::parse(require_str(json, "policy")?)
            .ok_or_else(|| "unknown budget policy".to_owned())?;
        match kind {
            "sweep" => {
                let scenarios = json
                    .get("scenarios")
                    .and_then(Json::as_array)
                    .ok_or("missing `scenarios`")?
                    .iter()
                    .map(scenario_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let gate_level = match json.get("gate_level") {
                    None | Some(Json::Null) => None,
                    Some(gate) => Some(GateLevelSpec {
                        samples: require_usize(gate, "samples")?,
                        seed: require_u64(gate, "seed")?,
                    }),
                };
                Ok(JobSpec::Sweep { gen, scenarios, policy, gate_level })
            }
            "explore" => {
                let requests = json
                    .get("requests")
                    .and_then(Json::as_array)
                    .ok_or("missing `requests`")?
                    .iter()
                    .map(request_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let options = ExploreOptions {
                    policy,
                    ceiling: ceiling_from_json(json.get("ceiling").ok_or("missing `ceiling`")?)?,
                    voltage: VoltagePolicy::parse(require_str(json, "voltage")?)
                        .ok_or("unknown voltage policy")?,
                    branch_model: BranchModel::parse(require_str(json, "branch_model")?)?,
                };
                Ok(JobSpec::Explore { gen, requests, options })
            }
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
}

/// One job's status snapshot (without the daemon-global cache counters,
/// which [`Response::Status`] carries alongside).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// Sweep or explore.
    pub kind: JobKind,
    /// Current lifecycle state.
    pub state: JobState,
    /// Work items completed so far.
    pub completed: usize,
    /// Total work items in the expanded plan (0 until the run starts).
    pub total: usize,
    /// The job's own cache delta, once it finished.
    pub job_cache: Option<CacheStats>,
    /// Failed scenarios/walks in the finished report.
    pub failures: Option<usize>,
    /// The error a failed job ended with.
    pub error: Option<String>,
}

impl JobStatus {
    fn to_json(&self) -> Json<'_> {
        let mut fields = vec![
            ("id", Json::number(self.id)),
            ("kind", Json::str(self.kind.label())),
            ("state", Json::str(self.state.label())),
            ("completed", Json::number(self.completed)),
            ("total", Json::number(self.total)),
        ];
        if let Some(cache) = self.job_cache {
            fields.push(("job_cache", cache_to_json(cache)));
        }
        if let Some(failures) = self.failures {
            fields.push(("failures", Json::number(failures)));
        }
        if let Some(error) = &self.error {
            fields.push(("error", Json::str(error)));
        }
        Json::object(fields)
    }

    fn from_json(json: &Json) -> Result<JobStatus, String> {
        Ok(JobStatus {
            id: require_u64(json, "id")?,
            kind: JobKind::parse(require_str(json, "kind")?).ok_or("unknown job kind")?,
            state: JobState::parse(require_str(json, "state")?).ok_or("unknown job state")?,
            completed: require_usize(json, "completed")?,
            total: require_usize(json, "total")?,
            job_cache: json.get("job_cache").map(cache_from_json).transpose()?,
            failures: json
                .get("failures")
                .map(|f| f.as_usize().ok_or("bad failures"))
                .transpose()?,
            error: json
                .get("error")
                .map(|e| Ok::<_, String>(e.as_str().ok_or("bad error")?.to_owned()))
                .transpose()?,
        })
    }
}

/// A daemon-to-client answer (one per request).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted under this id.
    Submitted {
        /// The assigned job id.
        id: u64,
    },
    /// The job was turned away by the admission layer.
    Rejected(Rejection),
    /// The request itself was invalid (malformed line, unknown id, …).
    Error {
        /// What went wrong.
        detail: String,
    },
    /// One job's status plus the daemon-global cache counters.
    Status {
        /// Global cache counters at response time.
        cache: CacheStats,
        /// The job snapshot.
        job: JobStatus,
    },
    /// Every tracked job plus the daemon-global cache counters.
    Jobs {
        /// Global cache counters at response time.
        cache: CacheStats,
        /// Snapshots in submission order.
        jobs: Vec<JobStatus>,
    },
    /// Cancellation was processed; `state` is the job's state afterwards
    /// (a running job stays `running` until its next work-item boundary).
    Cancelled {
        /// The job id.
        id: u64,
        /// The state after the cancellation request.
        state: JobState,
    },
    /// The daemon acknowledged shutdown.
    ShuttingDown,
}

/// A streamed job-lifecycle message on a submit connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Progress tick: `completed` of `total` work items are finished.
    /// Ticks arrive as workers finish, so consecutive `completed` values
    /// may be momentarily out of order; the final report is unaffected.
    Progress {
        /// The job id.
        id: u64,
        /// Work items completed.
        completed: usize,
        /// Total work items in the expanded plan.
        total: usize,
    },
    /// One online-session record, sent live as the session applies its
    /// event, in event order.  The payload is the exact single-line JSON
    /// object that appears in the final report's `records` array.  Sweeps
    /// and explorations send none.
    Record {
        /// The job id.
        id: u64,
        /// The record's JSON line.
        json: String,
    },
    /// Terminal event: the job reached `state`.  `report` carries the full
    /// byte-exact report JSON for finished jobs.
    Done {
        /// The job id.
        id: u64,
        /// The terminal state.
        state: JobState,
        /// Failed scenarios/walks inside the report.
        failures: Option<usize>,
        /// The job's cache delta (hits/misses attributable to this job).
        job_cache: Option<CacheStats>,
        /// The full report JSON, byte-identical to an in-process run.
        report: Option<String>,
        /// The error a failed job ended with.
        error: Option<String>,
    },
}

impl Request {
    /// Emits the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let fields = match self {
            Request::Submit(spec) => vec![("cmd", Json::str("submit")), ("job", spec.to_json())],
            Request::Status { id } => vec![("cmd", Json::str("status")), ("id", Json::number(*id))],
            Request::List => vec![("cmd", Json::str("list"))],
            Request::Cancel { id } => vec![("cmd", Json::str("cancel")), ("id", Json::number(*id))],
            Request::Shutdown => vec![("cmd", Json::str("shutdown"))],
        };
        Json::object(fields).emit()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformation.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line)?;
        match require_str(&json, "cmd")? {
            "submit" => {
                Ok(Request::Submit(JobSpec::from_json(json.get("job").ok_or("missing `job`")?)?))
            }
            "status" => Ok(Request::Status { id: require_u64(&json, "id")? }),
            "list" => Ok(Request::List),
            "cancel" => Ok(Request::Cancel { id: require_u64(&json, "id")? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

impl Response {
    /// Emits the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let fields = match self {
            Response::Submitted { id } => {
                vec![("resp", Json::str("submitted")), ("id", Json::number(*id))]
            }
            Response::Rejected(rejection) => vec![
                ("resp", Json::str("rejected")),
                ("reason", Json::str(rejection.reason.label())),
                ("detail", Json::str(&rejection.detail)),
            ],
            Response::Error { detail } => {
                vec![("resp", Json::str("error")), ("detail", Json::str(detail))]
            }
            Response::Status { cache, job } => vec![
                ("resp", Json::str("status")),
                ("cache", cache_to_json(*cache)),
                ("job", job.to_json()),
            ],
            Response::Jobs { cache, jobs } => vec![
                ("resp", Json::str("jobs")),
                ("cache", cache_to_json(*cache)),
                ("jobs", Json::Array(jobs.iter().map(JobStatus::to_json).collect())),
            ],
            Response::Cancelled { id, state } => vec![
                ("resp", Json::str("cancelled")),
                ("id", Json::number(*id)),
                ("state", Json::str(state.label())),
            ],
            Response::ShuttingDown => vec![("resp", Json::str("shutting-down"))],
        };
        Json::object(fields).emit()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformation.
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut json = Json::parse(line)?;
        match &*take_str(&mut json, "resp")? {
            "submitted" => Ok(Response::Submitted { id: require_u64(&json, "id")? }),
            "rejected" => Ok(Response::Rejected(Rejection {
                reason: RejectReason::parse(require_str(&json, "reason")?)
                    .ok_or("unknown reject reason")?,
                detail: take_str(&mut json, "detail")?.into_owned(),
            })),
            "error" => Ok(Response::Error { detail: take_str(&mut json, "detail")?.into_owned() }),
            "status" => Ok(Response::Status {
                cache: cache_from_json(json.get("cache").ok_or("missing `cache`")?)?,
                job: JobStatus::from_json(json.get("job").ok_or("missing `job`")?)?,
            }),
            "jobs" => Ok(Response::Jobs {
                cache: cache_from_json(json.get("cache").ok_or("missing `cache`")?)?,
                jobs: json
                    .get("jobs")
                    .and_then(Json::as_array)
                    .ok_or("missing `jobs`")?
                    .iter()
                    .map(JobStatus::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                id: require_u64(&json, "id")?,
                state: JobState::parse(require_str(&json, "state")?).ok_or("unknown state")?,
            }),
            "shutting-down" => Ok(Response::ShuttingDown),
            other => Err(format!("unknown response `{other}`")),
        }
    }
}

impl Event {
    /// Emits the event as one wire line (no trailing newline).
    ///
    /// Record and report payloads are escaped straight from `self`, never
    /// cloned into an intermediate tree.
    pub fn to_line(&self) -> String {
        let fields = match self {
            Event::Progress { id, completed, total } => vec![
                ("event", Json::str("progress")),
                ("id", Json::number(*id)),
                ("completed", Json::number(*completed)),
                ("total", Json::number(*total)),
            ],
            Event::Record { id, json } => vec![
                ("event", Json::str("record")),
                ("id", Json::number(*id)),
                ("json", Json::str(json)),
            ],
            Event::Done { id, state, failures, job_cache, report, error } => {
                let mut fields = vec![
                    ("event", Json::str("done")),
                    ("id", Json::number(*id)),
                    ("state", Json::str(state.label())),
                ];
                if let Some(failures) = failures {
                    fields.push(("failures", Json::number(*failures)));
                }
                if let Some(cache) = job_cache {
                    fields.push(("job_cache", cache_to_json(*cache)));
                }
                if let Some(report) = report {
                    fields.push(("report", Json::str(report)));
                }
                if let Some(error) = error {
                    fields.push(("error", Json::str(error)));
                }
                fields
            }
        };
        Json::object(fields).emit()
    }

    /// Parses one wire line.  Payload strings move out of the parsed tree
    /// instead of being copied again.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformation.
    pub fn parse(line: &str) -> Result<Event, String> {
        let mut json = Json::parse(line)?;
        match &*take_str(&mut json, "event")? {
            "progress" => Ok(Event::Progress {
                id: require_u64(&json, "id")?,
                completed: require_usize(&json, "completed")?,
                total: require_usize(&json, "total")?,
            }),
            "record" => Ok(Event::Record {
                id: require_u64(&json, "id")?,
                json: take_str(&mut json, "json")?.into_owned(),
            }),
            "done" => Ok(Event::Done {
                id: require_u64(&json, "id")?,
                state: JobState::parse(require_str(&json, "state")?).ok_or("unknown state")?,
                failures: json
                    .get("failures")
                    .map(|f| f.as_usize().ok_or("bad failures"))
                    .transpose()?,
                job_cache: json.get("job_cache").map(cache_from_json).transpose()?,
                report: json
                    .take("report")
                    .map(|r| r.into_string().ok_or("bad report"))
                    .transpose()?,
                error: json
                    .take("error")
                    .map(|e| e.into_string().ok_or("bad error"))
                    .transpose()?,
            }),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

fn scenario_to_json(scenario: &Scenario) -> Json<'_> {
    Json::object([
        ("circuit", Json::str(&scenario.circuit)),
        ("latency", Json::number(scenario.latency)),
        ("scheduler", Json::str(scenario.scheduler.label())),
        ("pipeline_depth", Json::number(scenario.pipeline_depth)),
        ("reorder", Json::Bool(scenario.reorder)),
        ("branch_model", Json::str(scenario.branch_model.label())),
    ])
}

fn scenario_from_json(json: &Json) -> Result<Scenario, String> {
    let latency = bounded_latency("latency", require_u32(json, "latency")?)?;
    Ok(Scenario::new(require_str(json, "circuit")?, latency)
        .scheduler(SchedulerKind::parse(require_str(json, "scheduler")?)?)
        .pipeline_depth(require_u32(json, "pipeline_depth")?)
        .reorder(json.get("reorder").and_then(Json::as_bool).ok_or("missing `reorder`")?)
        .branch_model(BranchModel::parse(require_str(json, "branch_model")?)?))
}

fn request_to_json(request: &ExploreRequest) -> Json<'_> {
    Json::object([
        ("circuit", Json::str(&request.circuit)),
        ("budgets", Json::Array(request.budgets.iter().map(|&b| Json::number(b)).collect())),
    ])
}

fn request_from_json(json: &Json) -> Result<ExploreRequest, String> {
    let budgets = json
        .get("budgets")
        .and_then(Json::as_array)
        .ok_or("missing `budgets`")?
        .iter()
        .map(|b| bounded_latency("budget", b.as_u32().ok_or("bad budget")?))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ExploreRequest::new(require_str(json, "circuit")?).budgets(budgets))
}

fn ceiling_to_json(ceiling: BudgetCeiling) -> Json<'static> {
    match ceiling {
        BudgetCeiling::Absolute(steps) => Json::object([("absolute", Json::number(steps))]),
        BudgetCeiling::CriticalPathPlus(span) => Json::object([("cp-plus", Json::number(span))]),
    }
}

fn ceiling_from_json(json: &Json) -> Result<BudgetCeiling, String> {
    if let Some(steps) = json.get("absolute") {
        let steps = bounded_latency("ceiling", steps.as_u32().ok_or("bad ceiling")?)?;
        return Ok(BudgetCeiling::Absolute(steps));
    }
    if let Some(span) = json.get("cp-plus") {
        let span = bounded_latency("ceiling", span.as_u32().ok_or("bad ceiling")?)?;
        return Ok(BudgetCeiling::CriticalPathPlus(span));
    }
    Err("ceiling needs `absolute` or `cp-plus`".to_owned())
}

/// Refuses a latency-like value (`what` names it) above [`MAX_LATENCY`]:
/// a sweep scenario's latency, an explore budget, and an `absolute` or
/// `cp-plus` budget ceiling.  Larger values are refused at parse time with
/// an `error` response, before a job is queued (the explorer would record
/// them as failures; a `cp-plus` span within the limit can still resolve
/// above it, which the explorer records too).  A scenario's pipeline depth is not bounded here:
/// the plan refuses an effective latency above the limit when the job
/// runs ([`engine::EngineError::LatencyTooLarge`]).
fn bounded_latency(what: &str, steps: u32) -> Result<u32, String> {
    if steps > MAX_LATENCY {
        return Err(format!("{what} {steps} exceeds MAX_LATENCY ({MAX_LATENCY} steps)"));
    }
    Ok(steps)
}

fn cache_to_json(cache: CacheStats) -> Json<'static> {
    Json::object([
        ("hits", Json::number(cache.hits)),
        ("misses", Json::number(cache.misses)),
        ("entries", Json::number(cache.entries)),
    ])
}

fn cache_from_json(json: &Json) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: require_u64(json, "hits")?,
        misses: require_u64(json, "misses")?,
        entries: require_usize(json, "entries")?,
    })
}

fn string_array(items: &[String]) -> Json<'_> {
    Json::Array(items.iter().map(Json::str).collect())
}

fn parse_string_array(json: &Json) -> Result<Vec<String>, String> {
    json.as_array()
        .ok_or("expected string array")?
        .iter()
        .map(|item| item.as_str().map(str::to_owned).ok_or_else(|| "expected string".to_owned()))
        .collect()
}

fn require_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    json.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string `{key}`"))
}

/// Moves a string field out of `json` (see [`Json::take`]).
fn take_str<'a>(json: &mut Json<'a>, key: &str) -> Result<Cow<'a, str>, String> {
    match json.take(key) {
        Some(Json::Str(text)) => Ok(text),
        _ => Err(format!("missing string `{key}`")),
    }
}

fn require_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing number `{key}`"))
}

fn require_u32(json: &Json, key: &str) -> Result<u32, String> {
    json.get(key).and_then(Json::as_u32).ok_or_else(|| format!("missing number `{key}`"))
}

fn require_usize(json: &Json, key: &str) -> Result<usize, String> {
    json.get(key).and_then(Json::as_usize).ok_or_else(|| format!("missing number `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let line = request.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Request::parse(&line).unwrap(), request, "{line}");
    }

    fn roundtrip_response(response: Response) {
        let line = response.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Response::parse(&line).unwrap(), response, "{line}");
    }

    fn roundtrip_event(event: Event) {
        let line = event.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Event::parse(&line).unwrap(), event, "{line}");
    }

    #[test]
    fn sweep_submissions_roundtrip_every_scenario_knob() {
        let scenarios = vec![
            Scenario::new("dealer", 4),
            Scenario::new("gen-rdag-s42-w6-d8-m300-0001", 9)
                .scheduler(SchedulerKind::List)
                .pipeline_depth(2)
                .reorder(true)
                .branch_model(BranchModel::biased(300)),
        ];
        roundtrip_request(Request::Submit(JobSpec::sweep(scenarios.clone())));
        roundtrip_request(Request::Submit(JobSpec::Sweep {
            gen: vec!["family=random-dag,seed=42,count=2".to_owned()],
            scenarios,
            policy: BudgetPolicy::Pareto,
            gate_level: Some(GateLevelSpec { samples: 256, seed: u64::MAX }),
        }));
    }

    #[test]
    fn explore_submissions_roundtrip_every_option() {
        roundtrip_request(Request::Submit(JobSpec::explore(vec![
            ExploreRequest::new("dealer").budgets([4, 6])
        ])));
        roundtrip_request(Request::Submit(JobSpec::Explore {
            gen: vec!["family=mux-tree,seed=7,count=3".to_owned()],
            requests: vec![ExploreRequest::new("x"), ExploreRequest::new("y").budgets([3])],
            options: ExploreOptions {
                policy: BudgetPolicy::FullRange,
                ceiling: BudgetCeiling::Absolute(20),
                voltage: VoltagePolicy::Global(engine::DelayScaling::Linear),
                branch_model: BranchModel::biased(900),
            },
        }));
        roundtrip_request(Request::Submit(JobSpec::Explore {
            gen: Vec::new(),
            requests: vec![ExploreRequest::new("z")],
            options: ExploreOptions {
                policy: BudgetPolicy::Pareto,
                ceiling: BudgetCeiling::CriticalPathPlus(4),
                voltage: VoltagePolicy::PerOp(engine::VoltagePreset::FiveLevel),
                branch_model: BranchModel::Fair,
            },
        }));
    }

    #[test]
    fn online_submissions_roundtrip_and_size_counts_events() {
        let stream = "family=mux-tree,seed=7,count=3;events=50,eseed=9,span=4";
        let spec = JobSpec::online(stream);
        assert_eq!(spec.kind(), JobKind::Online);
        assert_eq!(spec.size(), 50);
        assert!(spec.gen_specs().is_empty());
        roundtrip_request(Request::Submit(spec));
        assert_eq!(JobSpec::online("not a stream spec").size(), 0);
        assert!(Request::parse("{\"cmd\":\"submit\",\"job\":{\"kind\":\"online\"}}").is_err());
    }

    #[test]
    fn control_requests_roundtrip() {
        roundtrip_request(Request::Status { id: 7 });
        roundtrip_request(Request::List);
        roundtrip_request(Request::Cancel { id: u64::MAX });
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Submitted { id: 1 });
        roundtrip_response(Response::Rejected(Rejection {
            reason: RejectReason::QueueFull,
            detail: "16 jobs queued (limit 16)".to_owned(),
        }));
        roundtrip_response(Response::Error { detail: "missing `job`".to_owned() });
        let status = JobStatus {
            id: 3,
            kind: JobKind::Sweep,
            state: JobState::Running,
            completed: 12,
            total: 32,
            job_cache: None,
            failures: None,
            error: None,
        };
        let cache = CacheStats { hits: 10, misses: 5, entries: 5 };
        roundtrip_response(Response::Status { cache, job: status.clone() });
        let finished = JobStatus {
            state: JobState::Done,
            completed: 32,
            job_cache: Some(CacheStats { hits: 16, misses: 0, entries: 5 }),
            failures: Some(2),
            ..status
        };
        roundtrip_response(Response::Jobs { cache, jobs: vec![finished] });
        roundtrip_response(Response::Cancelled { id: 2, state: JobState::Cancelled });
        roundtrip_response(Response::ShuttingDown);
    }

    #[test]
    fn events_roundtrip_including_multiline_report_payloads() {
        roundtrip_event(Event::Progress { id: 1, completed: 3, total: 32 });
        roundtrip_event(Event::Record {
            id: 1,
            json: "{\"scenario\": {\"circuit\": \"dealer\"}, \"ok\": true}".to_owned(),
        });
        roundtrip_event(Event::Done {
            id: 1,
            state: JobState::Done,
            failures: Some(0),
            job_cache: Some(CacheStats { hits: 0, misses: 16, entries: 16 }),
            report: Some("{\n  \"records\": [\n  ]\n}\n".to_owned()),
            error: None,
        });
        roundtrip_event(Event::Done {
            id: 2,
            state: JobState::Failed,
            failures: None,
            job_cache: None,
            report: None,
            error: Some("unknown family `nope`".to_owned()),
        });
    }

    #[test]
    fn latencies_above_the_limit_are_refused_and_the_limit_itself_roundtrips() {
        let sweep =
            |latency| Request::Submit(JobSpec::sweep(vec![Scenario::new("dealer", latency)]));
        let explore = |budget, ceiling| {
            Request::Submit(JobSpec::Explore {
                gen: Vec::new(),
                requests: vec![ExploreRequest::new("dealer").budgets([budget])],
                options: ExploreOptions::new().policy(BudgetPolicy::FullRange).ceiling(ceiling),
            })
        };
        let within = [
            sweep(MAX_LATENCY),
            explore(MAX_LATENCY, BudgetCeiling::Absolute(MAX_LATENCY)),
            explore(4, BudgetCeiling::CriticalPathPlus(MAX_LATENCY)),
        ];
        for request in within {
            roundtrip_request(request);
        }
        let over = MAX_LATENCY + 1;
        for (request, what) in [
            (sweep(over), "latency"),
            (sweep(u32::MAX), "latency"),
            (explore(over, BudgetCeiling::Absolute(8)), "budget"),
            (explore(4, BudgetCeiling::Absolute(over)), "ceiling"),
            (explore(4, BudgetCeiling::Absolute(u32::MAX)), "ceiling"),
            (explore(4, BudgetCeiling::CriticalPathPlus(over)), "ceiling"),
        ] {
            let err = Request::parse(&request.to_line()).expect_err("over the limit");
            assert!(err.starts_with(what) && err.contains("4096"), "{err}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"cmd\":\"warp\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"status\"}").is_err(), "missing id");
        assert!(Request::parse("{\"cmd\":\"submit\"}").is_err(), "missing job");
        assert!(Response::parse("{\"resp\":\"status\"}").is_err());
        assert!(Event::parse("{\"event\":\"progress\",\"id\":1}").is_err());
        let err =
            JobSpec::from_json(&Json::parse("{\"kind\":\"sweep\",\"policy\":\"fixed\"}").unwrap());
        assert!(err.is_err(), "missing scenarios");
    }
}
