//! Online power management: event-stream sessions with incremental
//! schedule repair.
//!
//! The offline engine answers "what is the best schedule for this matrix
//! point"; this module answers "the operating point just *changed* — fix
//! the schedule without recomputing the world".  A [`SessionState`] holds
//! one warm [`sched::force::RepairWorkspace`] per live circuit and drives
//! each [`gen::StreamEvent`] through [`sched::force::repair`], which keeps
//! the repaired schedule **bit-identical to a cold recompute at the new
//! parameters**.  A budget the circuit already visited replays its memo
//! entry and one below the critical path fails in O(1), both at zero
//! work; any other budget is a cold recompute on the workspace's kept
//! buffers (per-event [`RepairStats`]).
//!
//! # Online vs. offline savings
//!
//! Every event record also evaluates a *static offline baseline*: the
//! schedule the circuit arrived with, kept unchanged for as long as it
//! still fits the current budget (and recomputed cold only when it no
//! longer does — a power manager that refuses to adapt).  Both schedules
//! are priced with the DVS scaled-delay energy model
//! ([`power::dvs::allotted_delays_into`] into a session-owned warm
//! buffer, × the paper's operation power weights under the circuit's
//! current scaling law); the per-event
//! `savings_gap` is the percentage the online repair saves over the
//! frozen baseline.  Under [`gen::Scaling::None`] the gap is zero by
//! construction — slack only pays when delay scaling converts it into
//! energy.
//!
//! # Determinism
//!
//! A session is a strictly sequential fold over the event stream (one
//! warm workspace per circuit is mutable state — there is nothing to
//! parallelise inside one stream), so a report is byte-identical across
//! runs, machines and thread counts.  Callers with several independent
//! streams run them in parallel, one stream per worker (as `onlineweep`
//! does).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;

use cdfg::Cdfg;
use circuits::Benchmark;
use gen::{GenError, Scaling, StreamEvent, StreamSpec};
use pmsched::OpWeights;
use power::dvs::{allotted_delays_into, DelayScaling};
use sched::force::{repair, RepairStats, RepairWorkspace};
use sched::{force, Schedule};

use crate::report::{json_number, json_string};
use crate::Progress;

/// Maps the generator's scaling label onto the power model's law.
fn delay_scaling(scaling: Scaling) -> DelayScaling {
    match scaling {
        Scaling::None => DelayScaling::None,
        Scaling::Linear => DelayScaling::Linear,
        Scaling::Quadratic => DelayScaling::Quadratic,
    }
}

/// What one successfully applied event costs and saves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMetrics {
    /// Control steps of the repaired schedule (0 for retirements).
    pub schedule_steps: u32,
    /// Scaled-delay energy of the online (repaired) schedule at the
    /// circuit's current budget and scaling law.
    pub online_energy: f64,
    /// Scaled-delay energy of the static offline baseline at the same
    /// budget and law.
    pub offline_energy: f64,
    /// Percent the online schedule saves over the baseline
    /// (`(offline − online) / offline × 100`; 0 when the baseline is 0).
    pub savings_gap: f64,
    /// Whether this event forced the offline baseline itself to recompute
    /// (its frozen schedule no longer fit the tightened budget).
    pub offline_recomputed: bool,
}

impl EventMetrics {
    fn zero() -> Self {
        EventMetrics {
            schedule_steps: 0,
            online_energy: 0.0,
            offline_energy: 0.0,
            savings_gap: 0.0,
            offline_recomputed: false,
        }
    }
}

/// One event's outcome: the event itself, the repair cost, and the
/// metrics (or the typed scheduling error's message, e.g. a budget below
/// the critical path — the session then keeps its previous state).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Position in the stream (event order — also record order).
    pub index: usize,
    /// The event that was applied.
    pub event: StreamEvent,
    /// How much of the graph the repair re-derived.
    pub stats: RepairStats,
    /// Metrics on success, the scheduling error otherwise.
    pub outcome: Result<EventMetrics, String>,
}

/// Warm per-circuit state while the circuit is live.
#[derive(Debug)]
struct CircuitSession {
    /// The repair workspace: critical path, schedule memo and kernel
    /// buffers.
    rw: RepairWorkspace,
    /// Current latency budget.
    budget: u32,
    /// Current delay-scaling law.
    scaling: DelayScaling,
    /// Current (repaired) schedule.
    schedule: Schedule,
    /// The static offline baseline schedule (arrival schedule, recomputed
    /// only when a tightened budget invalidates it).
    offline: Schedule,
}

/// The online session: the circuit pool and one warm workspace per live
/// circuit.  [`SessionState::apply`] is the single entry point — a session
/// is a deterministic fold over its event stream.
#[derive(Debug)]
pub struct SessionState {
    /// Every circuit the stream may reference, by name.
    pool: BTreeMap<String, Cdfg>,
    /// Live circuits, by name (BTreeMap for deterministic iteration).
    live: BTreeMap<String, CircuitSession>,
    /// The paper's relative operation power weights.
    weights: OpWeights,
    /// Warm allotted-delay buffer, reused across every energy evaluation
    /// of the session (one allocation for the whole stream).
    delay_buf: Vec<(cdfg::NodeId, u32)>,
}

impl SessionState {
    /// A session over a circuit pool (typically a generated batch).
    pub fn new<I: IntoIterator<Item = Benchmark>>(pool: I) -> Self {
        SessionState {
            pool: pool.into_iter().map(|b| (b.name, b.cdfg)).collect(),
            live: BTreeMap::new(),
            weights: OpWeights::paper_power(),
            delay_buf: Vec::new(),
        }
    }

    /// The current budget of a live circuit.
    pub fn budget_of(&self, circuit: &str) -> Option<u32> {
        self.live.get(circuit).map(|s| s.budget)
    }

    /// The current repaired schedule of a live circuit.
    pub fn schedule_of(&self, circuit: &str) -> Option<&Schedule> {
        self.live.get(circuit).map(|s| &s.schedule)
    }

    /// A circuit from the pool, live or not.
    pub fn circuit(&self, name: &str) -> Option<&Cdfg> {
        self.pool.get(name)
    }

    /// Applies one event and reports what it cost.  Unknown circuits and
    /// events that contradict the live set (arriving twice, retiring the
    /// absent) surface as `Err` outcomes without touching session state —
    /// the generated streams never produce them, but a wire client could.
    pub fn apply(&mut self, index: usize, event: &StreamEvent) -> EventRecord {
        let (stats, outcome) = self.apply_inner(event);
        EventRecord { index, event: event.clone(), stats, outcome }
    }

    fn apply_inner(&mut self, event: &StreamEvent) -> (RepairStats, Result<EventMetrics, String>) {
        match event {
            StreamEvent::CircuitArrived { circuit, budget } => {
                if self.live.contains_key(circuit) {
                    return (RepairStats::default(), Err(format!("{circuit} is already live")));
                }
                let Some(cdfg) = self.pool.get(circuit) else {
                    return (RepairStats::default(), Err(format!("unknown circuit {circuit}")));
                };
                let mut rw = RepairWorkspace::new();
                let (result, stats) = repair(cdfg, *budget, &mut rw);
                match result {
                    Ok(schedule) => {
                        let session = CircuitSession {
                            rw,
                            budget: *budget,
                            scaling: DelayScaling::None,
                            offline: schedule.clone(),
                            schedule,
                        };
                        let metrics =
                            metrics_for(&self.weights, cdfg, &session, false, &mut self.delay_buf);
                        self.live.insert(circuit.clone(), session);
                        (stats, Ok(metrics))
                    }
                    Err(e) => (stats, Err(e.to_string())),
                }
            }
            StreamEvent::CircuitRetired { circuit } => {
                if self.live.remove(circuit).is_none() {
                    return (RepairStats::default(), Err(format!("{circuit} is not live")));
                }
                (RepairStats::default(), Ok(EventMetrics::zero()))
            }
            StreamEvent::BudgetChanged { circuit, budget } => {
                let Some(session) = self.live.get_mut(circuit) else {
                    return (RepairStats::default(), Err(format!("{circuit} is not live")));
                };
                let cdfg = self.pool.get(circuit).expect("live circuits come from the pool");
                let (result, stats) = repair(cdfg, *budget, &mut session.rw);
                match result {
                    Ok(schedule) => {
                        session.budget = *budget;
                        session.schedule = schedule;
                        // The frozen baseline survives until the budget
                        // drops below the steps it actually uses.
                        let offline_recomputed = session.offline.last_used_step() > *budget;
                        if offline_recomputed {
                            session.offline = force::schedule(cdfg, *budget)
                                .expect("repair succeeded at this budget");
                        }
                        let session = &self.live[circuit];
                        let metrics = metrics_for(
                            &self.weights,
                            cdfg,
                            session,
                            offline_recomputed,
                            &mut self.delay_buf,
                        );
                        (stats, Ok(metrics))
                    }
                    Err(e) => (stats, Err(e.to_string())),
                }
            }
            StreamEvent::ScalingChanged { circuit, scaling } => {
                let Some(session) = self.live.get_mut(circuit) else {
                    return (RepairStats::default(), Err(format!("{circuit} is not live")));
                };
                session.scaling = delay_scaling(*scaling);
                let session = &self.live[circuit];
                let cdfg = self.pool.get(circuit).expect("live circuits come from the pool");
                let metrics = metrics_for(&self.weights, cdfg, session, false, &mut self.delay_buf);
                (RepairStats::default(), Ok(metrics))
            }
        }
    }
}

/// Scaled-delay energy of `schedule` for `cdfg` at `latency` under
/// `scaling`: each operation's paper power weight times the scaling
/// factor of its allotted delay, summed in ascending node order (the
/// deterministic summation order every report in this repo uses).  The
/// delay allotment lands in `buf` ([`allotted_delays_into`]) so a warm
/// session never reallocates it.
fn energy(
    weights: &OpWeights,
    cdfg: &Cdfg,
    schedule: &Schedule,
    latency: u32,
    scaling: DelayScaling,
    buf: &mut Vec<(cdfg::NodeId, u32)>,
) -> f64 {
    allotted_delays_into(cdfg, schedule, latency, buf);
    let mut total = 0.0;
    for &(node, delay) in buf.iter() {
        let class = cdfg.node(node).expect("scheduled node is live").op.class();
        total += weights.weight(class) * scaling.factor(delay);
    }
    total
}

fn metrics_for(
    weights: &OpWeights,
    cdfg: &Cdfg,
    session: &CircuitSession,
    offline_recomputed: bool,
    buf: &mut Vec<(cdfg::NodeId, u32)>,
) -> EventMetrics {
    let online = energy(weights, cdfg, &session.schedule, session.budget, session.scaling, buf);
    let offline = energy(weights, cdfg, &session.offline, session.budget, session.scaling, buf);
    let savings_gap = if offline > 0.0 { (offline - online) / offline * 100.0 } else { 0.0 };
    EventMetrics {
        schedule_steps: session.schedule.last_used_step(),
        online_energy: online,
        offline_energy: offline,
        savings_gap,
        offline_recomputed,
    }
}

/// Aggregates of one stream's records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineSummary {
    /// Events applied.
    pub events: usize,
    /// Events whose outcome was an error.
    pub errors: usize,
    /// Arrivals / retirements / budget steps / scaling changes.
    pub arrivals: usize,
    /// See `arrivals`.
    pub retirements: usize,
    /// See `arrivals`.
    pub budget_events: usize,
    /// See `arrivals`.
    pub scaling_events: usize,
    /// Events that ran a full recompute: every event that did any work.
    pub full_recomputes: usize,
    /// Events the repair served without touching a single node (schedule
    /// memo hits, O(1) infeasibility, scaling-only and retire events).
    pub zero_work_events: usize,
    /// Events that invalidated the offline baseline schedule.
    pub offline_recomputes: usize,
    /// Total nodes touched across all repairs.
    pub nodes_touched: usize,
    /// Online / offline energies summed over events (each event is one
    /// tick of session time).
    pub online_energy: f64,
    /// See `online_energy`.
    pub offline_energy: f64,
    /// Aggregate savings gap in percent, over the summed energies.
    pub savings_gap: f64,
}

/// The full result of one stream: the spec, every record in event order,
/// and the aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// The lossless spec string ([`StreamSpec::spec_string`]).
    pub spec: String,
    /// One record per event, in event order.
    pub records: Vec<EventRecord>,
    /// The aggregates.
    pub summary: OnlineSummary,
}

impl OnlineReport {
    /// Builds the report (and its aggregates) from applied records.
    pub fn from_records(spec: &StreamSpec, records: Vec<EventRecord>) -> Self {
        let mut summary = OnlineSummary { events: records.len(), ..OnlineSummary::default() };
        for record in &records {
            match &record.event {
                StreamEvent::CircuitArrived { .. } => summary.arrivals += 1,
                StreamEvent::CircuitRetired { .. } => summary.retirements += 1,
                StreamEvent::BudgetChanged { .. } => summary.budget_events += 1,
                StreamEvent::ScalingChanged { .. } => summary.scaling_events += 1,
            }
            if record.stats.full_recompute {
                summary.full_recomputes += 1;
            } else {
                summary.zero_work_events += 1;
            }
            summary.nodes_touched += record.stats.nodes_touched;
            match &record.outcome {
                Ok(metrics) => {
                    summary.online_energy += metrics.online_energy;
                    summary.offline_energy += metrics.offline_energy;
                    if metrics.offline_recomputed {
                        summary.offline_recomputes += 1;
                    }
                }
                Err(_) => summary.errors += 1,
            }
        }
        summary.savings_gap = if summary.offline_energy > 0.0 {
            (summary.offline_energy - summary.online_energy) / summary.offline_energy * 100.0
        } else {
            0.0
        };
        OnlineReport { spec: spec.spec_string(), records, summary }
    }

    /// Machine-readable JSON: stable key order, one record per line —
    /// byte-identical across runs, thread counts, and in-process vs.
    /// daemon execution.
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"spec\": {},", json_string(&self.spec));
        let _ = writeln!(
            out,
            "  \"summary\": {{\"events\": {}, \"errors\": {}, \"arrivals\": {}, \
             \"retirements\": {}, \"budget_events\": {}, \"scaling_events\": {}, \
             \"full_recomputes\": {}, \"zero_work_events\": {}, \"offline_recomputes\": {}, \
             \"nodes_touched\": {}, \"online_energy\": {}, \"offline_energy\": {}, \
             \"savings_gap\": {}}},",
            s.events,
            s.errors,
            s.arrivals,
            s.retirements,
            s.budget_events,
            s.scaling_events,
            s.full_recomputes,
            s.zero_work_events,
            s.offline_recomputes,
            s.nodes_touched,
            json_number(s.online_energy),
            json_number(s.offline_energy),
            json_number(s.savings_gap),
        );
        out.push_str("  \"records\": [\n");
        for (i, record) in self.records.iter().enumerate() {
            let comma = if i + 1 == self.records.len() { "" } else { "," };
            let _ = writeln!(out, "    {}{comma}", record_json(record));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let s = &self.summary;
        let mut out = String::new();
        let _ = writeln!(out, "stream: {}", self.spec);
        let _ = writeln!(
            out,
            "events: {} ({} arrive, {} retire, {} budget, {} scaling, {} errors)",
            s.events, s.arrivals, s.retirements, s.budget_events, s.scaling_events, s.errors
        );
        let _ = writeln!(
            out,
            "repair: {} zero-work, {} full recomputes, {} nodes touched total",
            s.zero_work_events, s.full_recomputes, s.nodes_touched
        );
        let _ = writeln!(
            out,
            "energy: online {:.1}, offline {:.1}, savings gap {:.2}% \
             ({} offline recomputes)",
            s.online_energy, s.offline_energy, s.savings_gap, s.offline_recomputes
        );
        out
    }
}

/// One record as a single JSON line (the daemon streams these per event,
/// in event order).
pub fn record_json(record: &EventRecord) -> String {
    let mut out = format!(
        "{{\"index\": {}, \"kind\": {}, \"circuit\": {}",
        record.index,
        json_string(record.event.kind()),
        json_string(record.event.circuit())
    );
    match &record.event {
        StreamEvent::CircuitArrived { budget, .. } | StreamEvent::BudgetChanged { budget, .. } => {
            let _ = write!(out, ", \"budget\": {budget}");
        }
        StreamEvent::ScalingChanged { scaling, .. } => {
            let _ = write!(out, ", \"scaling\": {}", json_string(scaling.label()));
        }
        StreamEvent::CircuitRetired { .. } => {}
    }
    let _ = write!(
        out,
        ", \"stats\": {{\"nodes_touched\": {}, \"classes_rebuilt\": {}, \
         \"full_recompute\": {}}}",
        record.stats.nodes_touched, record.stats.classes_rebuilt, record.stats.full_recompute
    );
    match &record.outcome {
        Ok(m) => {
            let _ = write!(
                out,
                ", \"steps\": {}, \"online_energy\": {}, \"offline_energy\": {}, \
                 \"savings_gap\": {}, \"offline_recomputed\": {}}}",
                m.schedule_steps,
                json_number(m.online_energy),
                json_number(m.offline_energy),
                json_number(m.savings_gap),
                m.offline_recomputed
            );
        }
        Err(e) => {
            let _ = write!(out, ", \"error\": {}}}", json_string(e));
        }
    }
    out
}

/// Runs one event stream to completion.
///
/// # Errors
///
/// Propagates generator failures (invalid knobs); per-event scheduling
/// errors are recorded, not raised.
pub fn run_stream(spec: &StreamSpec) -> Result<OnlineReport, GenError> {
    Ok(run_stream_controlled(spec, None, None, None)?.expect("uncancellable run completes"))
}

/// [`run_stream`] with cooperative cancellation, progress ticks and a
/// per-record sink (the daemon wires the sink to its event stream so
/// records reach the client in event order, as they are produced).
///
/// Returns `Ok(None)` when the cancel flag stopped the session early.
///
/// # Errors
///
/// Propagates generator failures.
pub fn run_stream_controlled(
    spec: &StreamSpec,
    cancel: Option<&AtomicBool>,
    progress: Option<&(dyn Fn(Progress) + Sync)>,
    on_record: Option<&(dyn Fn(&EventRecord) + Sync)>,
) -> Result<Option<OnlineReport>, GenError> {
    let (batch, events) = gen::stream(spec)?;
    let mut state = SessionState::new(batch);
    let total = events.len();
    let mut records = Vec::with_capacity(total);
    for (index, event) in events.iter().enumerate() {
        if cancel.is_some_and(|flag| flag.load(std::sync::atomic::Ordering::Relaxed)) {
            return Ok(None);
        }
        let record = state.apply(index, event);
        if let Some(sink) = on_record {
            sink(&record);
        }
        records.push(record);
        if let Some(tick) = progress {
            tick(Progress { completed: index + 1, total });
        }
    }
    Ok(Some(OnlineReport::from_records(spec, records)))
}

/// The outcome of a verified replay: the report plus the
/// identity-vs-cold-recompute audit the online mode's contract rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedOutcome {
    /// The stream's report (identical to an unverified [`run_stream`]).
    pub report: OnlineReport,
    /// Whether every post-event schedule (and every typed error) was
    /// bit-identical to a cold recompute at the final parameters.
    pub cold_identical: bool,
    /// Number of events whose schedule diverged from the cold recompute
    /// (0 when `cold_identical`).
    pub mismatches: usize,
    /// Median of per-event `nodes_touched / cold nodes_touched` over all
    /// schedule-producing events (arrivals and budget steps): 0 for a memo
    /// hit, 1 for a kernel run.
    pub median_touched_ratio: f64,
    /// Mean of the same ratio.
    pub mean_touched_ratio: f64,
}

/// Replays `spec` with a full cold-recompute audit: after every applied
/// event the affected circuit's schedule is recomputed cold at the final
/// parameters and byte-compared, failed events are checked to fail cold
/// with the same message, and every repair's touched-node count is set
/// against a fresh workspace's (0 for a memo hit, 1 for a kernel run,
/// which costs exactly what the fresh run costs).  This costs a cold
/// recompute per event — it is the *measurement* of what the memo saves,
/// used by `onlineweep` and the repair-economy tests; production paths use
/// [`run_stream`].
///
/// # Errors
///
/// Propagates generator failures.
pub fn run_stream_verified(spec: &StreamSpec) -> Result<VerifiedOutcome, GenError> {
    let (batch, events) = gen::stream(spec)?;
    let pool: BTreeMap<String, Cdfg> =
        batch.iter().map(|b| (b.name.clone(), b.cdfg.clone())).collect();
    let mut state = SessionState::new(batch);
    let mut records = Vec::with_capacity(events.len());
    let mut mismatches = 0usize;
    let mut ratios: Vec<f64> = Vec::new();
    for (index, event) in events.iter().enumerate() {
        let record = state.apply(index, event);
        let circuit = event.circuit();
        let cdfg = &pool[circuit];
        match (&record.outcome, event) {
            (Ok(_), StreamEvent::CircuitArrived { .. } | StreamEvent::BudgetChanged { .. }) => {
                let budget = state.budget_of(circuit).expect("event left the circuit live");
                let cold = force::schedule(cdfg, budget).expect("repair succeeded at this budget");
                if state.schedule_of(circuit) != Some(&cold) {
                    mismatches += 1;
                }
                let mut fresh = RepairWorkspace::new();
                let (_, full) = repair(cdfg, budget, &mut fresh);
                ratios.push(record.stats.nodes_touched as f64 / full.nodes_touched.max(1) as f64);
            }
            (Err(message), StreamEvent::BudgetChanged { budget, .. }) => {
                // Infeasible events must fail cold with the identical
                // typed error.
                let cold = force::schedule(cdfg, *budget).expect_err("repair refused this budget");
                if message != &cold.to_string() {
                    mismatches += 1;
                }
            }
            _ => {}
        }
        records.push(record);
    }
    ratios.sort_by(f64::total_cmp);
    let median_touched_ratio = if ratios.is_empty() { 0.0 } else { ratios[ratios.len() / 2] };
    let mean_touched_ratio =
        if ratios.is_empty() { 0.0 } else { ratios.iter().sum::<f64>() / ratios.len() as f64 };
    Ok(VerifiedOutcome {
        report: OnlineReport::from_records(spec, records),
        cold_identical: mismatches == 0,
        mismatches,
        median_touched_ratio,
        mean_touched_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> StreamSpec {
        StreamSpec::parse(text).unwrap()
    }

    #[test]
    fn reports_are_deterministic_and_verified_replays_agree() {
        let s = spec("family=mux-tree,seed=7,count=3;events=80,eseed=5,churn=120,rescale=120");
        let a = run_stream(&s).unwrap();
        let b = run_stream(&s).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "same spec, same bytes");
        let verified = run_stream_verified(&s).unwrap();
        assert!(verified.cold_identical, "{} mismatches", verified.mismatches);
        assert_eq!(verified.report.to_json(), a.to_json(), "audit does not perturb the report");
        assert!(verified.median_touched_ratio <= 1.0);
    }

    #[test]
    fn every_family_streams_and_repairs_identically_to_cold() {
        for family in gen::Family::ALL {
            let s = StreamSpec::parse(&format!(
                "family={},seed=3,count=2;events=40,eseed=9,churn=100,rescale=100",
                family.name()
            ))
            .unwrap();
            let verified = run_stream_verified(&s).unwrap();
            assert!(verified.cold_identical, "{family}: {} mismatches", verified.mismatches);
            assert_eq!(verified.report.summary.errors, 0, "{family}");
        }
    }

    #[test]
    fn budget_walks_repair_mostly_from_the_memo() {
        // A pure budget-step stream revisits its small window constantly;
        // the memo serves revisits with zero touched nodes, which is what
        // keeps the touched-nodes ratio low.
        let s = spec("family=random-dag,seed=11,count=1;events=200,eseed=4,churn=0,rescale=0");
        let verified = run_stream_verified(&s).unwrap();
        assert!(verified.cold_identical);
        let summary = verified.report.summary;
        assert!(
            summary.zero_work_events * 2 > summary.events,
            "revisits should dominate: {summary:?}"
        );
        assert!(
            verified.median_touched_ratio < 0.3,
            "median touched ratio {} too high",
            verified.median_touched_ratio
        );
    }

    #[test]
    fn scaling_changes_open_a_savings_gap_and_none_closes_it() {
        let s = spec("family=dsp-chain,seed=2,count=1;events=120,eseed=6,churn=0,rescale=200");
        let report = run_stream(&s).unwrap();
        let mut saw_gap = false;
        for record in &report.records {
            let metrics = record.outcome.as_ref().expect("stream stays feasible");
            assert!(metrics.savings_gap >= -1e-9, "online never loses: {record:?}");
            if metrics.savings_gap > 0.0 {
                saw_gap = true;
            }
        }
        assert!(saw_gap, "scaled events should open a gap: {:?}", report.summary);
    }

    #[test]
    fn infeasible_budgets_error_like_cold_and_keep_the_session_alive() {
        let (batch, _) =
            gen::stream(&spec("family=mux-tree,seed=1,count=1;events=1,eseed=1")).unwrap();
        let name = batch[0].name.clone();
        let cp = batch[0].control_steps[0];
        let cdfg = batch[0].cdfg.clone();
        let mut state = SessionState::new(batch);
        let arrive = StreamEvent::CircuitArrived { circuit: name.clone(), budget: cp };
        assert!(state.apply(0, &arrive).outcome.is_ok());
        if cp > 1 {
            let tighten = StreamEvent::BudgetChanged { circuit: name.clone(), budget: cp - 1 };
            let record = state.apply(1, &tighten);
            let cold = force::schedule(&cdfg, cp - 1).unwrap_err();
            assert_eq!(record.outcome, Err(cold.to_string()));
            assert_eq!(state.budget_of(&name), Some(cp), "session keeps its last good budget");
        }
        let unknown = StreamEvent::BudgetChanged { circuit: "nope".into(), budget: 3 };
        assert!(state.apply(2, &unknown).outcome.is_err());
    }

    #[test]
    fn record_json_covers_every_event_shape() {
        let s = spec("family=mux-tree,seed=7,count=2;events=120,eseed=2,churn=300,rescale=200");
        let report = run_stream(&s).unwrap();
        let json = report.to_json();
        for kind in ["arrive", "retire", "budget", "scaling"] {
            assert!(json.contains(&format!("\"kind\": \"{kind}\"")), "missing {kind}");
        }
        assert!(json.contains("\"savings_gap\""));
        assert!(json.contains("\"full_recompute\""));
    }
}
