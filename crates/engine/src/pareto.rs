//! The slack-driven latency–power Pareto explorer.
//!
//! The paper evaluates each circuit at a handful of hand-picked control-step
//! budgets (Table II).  This module treats latency vs. power as a
//! first-class multi-objective search instead: for every circuit it walks
//! the **full feasible budget range** — from the critical path up to a
//! configurable ceiling — runs the complete power-management flow at every
//! budget, scores each point's energy under the [`VoltagePolicy`] in
//! effect (a global scaled-delay curve from [`power::dvs`], or per-op
//! discrete levels picked by [`sched::dvs::distribute_slack`]), prices its
//! area with [`binding::AreaModel`] over the FU binding — voltage-
//! partitioned when levels differ, since operations at different supplies
//! cannot share a unit — and reports the non-dominated 3-objective
//! (budget, energy, area) front.
//!
//! Two things make the walk cheap and exact:
//!
//! * **One force pass per budget** — each point runs the selection loop
//!   and the final HYPER pass, and nothing else: the control edges the
//!   loop accepts are patched into the working graph's cached adjacency
//!   instead of rebuilding it, and the unmanaged baseline schedule, which
//!   no point here reads, is never scheduled (it is computed on first
//!   read).  The identity tests pin the final schedule of every point
//!   against `sched::naive` on the power-managed graph.
//! * **Per-point independence** — every (circuit, budget) point reads only
//!   the circuit, its budget and the options, so the points of all
//!   circuits run in parallel on the engine's [`crate::pool`] and are
//!   assembled in request order, then budget order: the report is
//!   identical for every thread count.

use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;

use binding::{AreaModel, Datapath};
use cdfg::Cdfg;
use pmsched::{power_manage, OpWeights, PowerManagementOptions};
use power::dvs::allotted_delays;
use power::voltage::{voltage_scaled_estimate, VoltageAssignment, VoltageTable};

use crate::report::{csv_field, dominates, json_number, json_string};
use crate::scenario::BranchModel;
use crate::{pool, select_probabilities, Engine, MAX_LATENCY};

pub use power::dvs::DelayScaling;
pub use power::voltage::{VoltagePolicy, VoltagePreset};

/// Which latency budgets an exploration visits per circuit.  A sweep runs
/// exactly its scenarios, so [`crate::SweepPlanBuilder::build`] accepts
/// only [`BudgetPolicy::Fixed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BudgetPolicy {
    /// Only the explicitly requested budgets (the paper's per-table lists).
    #[default]
    Fixed,
    /// Every feasible budget from the circuit's critical path up to the
    /// ceiling; all points are reported.
    FullRange,
    /// Same walk as [`BudgetPolicy::FullRange`], but only the non-dominated
    /// (budget, reduction) points are kept.
    Pareto,
}

impl BudgetPolicy {
    /// Every policy, in canonical order.
    pub const ALL: [BudgetPolicy; 3] =
        [BudgetPolicy::Fixed, BudgetPolicy::FullRange, BudgetPolicy::Pareto];

    /// Short stable label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            BudgetPolicy::Fixed => "fixed",
            BudgetPolicy::FullRange => "full-range",
            BudgetPolicy::Pareto => "pareto",
        }
    }

    /// Parses a label produced by [`BudgetPolicy::label`].
    pub fn parse(text: &str) -> Option<Self> {
        BudgetPolicy::ALL.into_iter().find(|p| p.label() == text)
    }
}

impl fmt::Display for BudgetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Upper end of the budget range a full-range walk covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BudgetCeiling {
    /// A fixed number of control steps (floored at the critical path).
    Absolute(u32),
    /// `critical path + span` control steps, so every circuit gets the same
    /// amount of extra slack regardless of its depth.
    CriticalPathPlus(u32),
}

impl BudgetCeiling {
    /// Resolves the ceiling for a circuit with critical path `cp`; never
    /// below `cp` itself.
    pub fn resolve(self, cp: u32) -> u32 {
        match self {
            BudgetCeiling::Absolute(steps) => steps.max(cp),
            BudgetCeiling::CriticalPathPlus(span) => cp.saturating_add(span),
        }
    }
}

impl Default for BudgetCeiling {
    fn default() -> Self {
        BudgetCeiling::CriticalPathPlus(8)
    }
}

/// All knobs of one exploration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Budget policy (default: [`BudgetPolicy::Fixed`]).
    pub policy: BudgetPolicy,
    /// Budget ceiling for the range policies (default: critical path + 8).
    pub ceiling: BudgetCeiling,
    /// Voltage policy: one global scaled-delay curve or per-op discrete
    /// levels (default: `Global(None)` — the paper's model).
    pub voltage: VoltagePolicy,
    /// Branch-probability model for the expected-execution estimate.
    pub branch_model: BranchModel,
}

impl ExploreOptions {
    /// Options with every knob at its default.
    pub fn new() -> Self {
        ExploreOptions::default()
    }

    /// Replaces the budget policy.
    pub fn policy(mut self, policy: BudgetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the budget ceiling.
    pub fn ceiling(mut self, ceiling: BudgetCeiling) -> Self {
        self.ceiling = ceiling;
        self
    }

    /// Replaces the voltage policy.
    pub fn voltage(mut self, voltage: VoltagePolicy) -> Self {
        self.voltage = voltage;
        self
    }

    /// Replaces the branch-probability model.
    pub fn branch_model(mut self, model: BranchModel) -> Self {
        self.branch_model = model;
        self
    }
}

/// One circuit to explore, with the explicit budgets the
/// [`BudgetPolicy::Fixed`] policy uses (the range policies derive their own
/// budgets and ignore the list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreRequest {
    /// Circuit name, resolved against the engine's registry.
    pub circuit: String,
    /// Explicit budgets for the fixed policy.
    pub budgets: Vec<u32>,
}

impl ExploreRequest {
    /// A request with no explicit budgets (range policies only).
    pub fn new(circuit: impl Into<String>) -> Self {
        ExploreRequest { circuit: circuit.into(), budgets: Vec::new() }
    }

    /// Adds explicit budgets for the fixed policy.
    pub fn budgets<I: IntoIterator<Item = u32>>(mut self, budgets: I) -> Self {
        self.budgets.extend(budgets);
        self
    }
}

/// One explored (budget, energy) point of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorePoint {
    /// Control-step budget (the scenario's latency bound).
    pub budget: u32,
    /// Control steps the final schedule spans.
    pub schedule_steps: u32,
    /// Multiplexors gating at least one operation in the final schedule.
    pub pm_muxes: usize,
    /// Shut-down reduction in percent (Table II's mechanism).
    pub shutdown_reduction: f64,
    /// Additional slowdown reduction in percent (the voltage model).
    pub slowdown_reduction: f64,
    /// Combined reduction in percent (a monotone transform of `energy`;
    /// kept for the reduction-oriented tables).
    pub combined_reduction: f64,
    /// Absolute weighted energy under the voltage policy (the
    /// `scaled_weighted` estimate) — the energy objective of the front.
    pub energy: f64,
    /// Datapath area under the voltage-partitioned FU binding
    /// ([`binding::AreaModel`] total) — the area objective of the front.
    pub area: f64,
    /// Whether the point is on the non-dominated (budget, energy, area)
    /// front.
    pub on_front: bool,
}

/// Everything one circuit's exploration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitExploration {
    /// Circuit name.
    pub circuit: String,
    /// Critical-path length (the floor of the feasible budget range).
    pub critical_path: u32,
    /// Explored points in ascending budget order.  Under
    /// [`BudgetPolicy::Pareto`] only front points are retained.
    pub points: Vec<ExplorePoint>,
    /// Budgets that failed, with their error messages.
    pub failures: Vec<(u32, String)>,
}

impl CircuitExploration {
    /// The non-dominated points, in ascending budget order.
    pub fn front(&self) -> impl Iterator<Item = &ExplorePoint> {
        self.points.iter().filter(|p| p.on_front)
    }
}

/// The complete result of an exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoReport {
    /// The policy the run used.
    pub policy: BudgetPolicy,
    /// The voltage policy the run used.
    pub voltage: VoltagePolicy,
    /// The branch model the run used.
    pub branch_model: BranchModel,
    /// Per-circuit explorations, in request order.
    pub circuits: Vec<CircuitExploration>,
}

impl ParetoReport {
    /// Number of failed (circuit, budget) walks across all circuits.
    pub fn failure_count(&self) -> usize {
        self.circuits.iter().map(|c| c.failures.len()).sum()
    }

    /// The exploration of one circuit, if it was requested.
    pub fn circuit(&self, name: &str) -> Option<&CircuitExploration> {
        self.circuits.iter().find(|c| c.circuit == name)
    }

    /// Renders the report as JSON (stable key order and float formatting,
    /// byte-identical across reruns and thread counts).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"policy\": {}, \"voltage\": {}, \"branch_model\": {},\n  \"circuits\": [",
            json_string(self.policy.label()),
            json_string(self.voltage.label()),
            json_string(&self.branch_model.label()),
        );
        for (i, c) in self.circuits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"circuit\": {}, \"critical_path\": {}, \"points\": [",
                json_string(&c.circuit),
                c.critical_path
            );
            for (j, p) in c.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{\"budget\": {}, \"schedule_steps\": {}, \"pm_muxes\": {}, \
                     \"shutdown_reduction\": {}, \"slowdown_reduction\": {}, \
                     \"combined_reduction\": {}, \"energy\": {}, \"area\": {}, \
                     \"on_front\": {}}}",
                    p.budget,
                    p.schedule_steps,
                    p.pm_muxes,
                    json_number(p.shutdown_reduction),
                    json_number(p.slowdown_reduction),
                    json_number(p.combined_reduction),
                    json_number(p.energy),
                    json_number(p.area),
                    p.on_front,
                );
            }
            out.push_str("\n    ], \"failures\": [");
            for (j, (budget, error)) in c.failures.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{\"budget\": {budget}, \"error\": {}}}",
                    json_string(error)
                );
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the explored points as CSV (header plus one line per point,
    /// then one line per failure with the error in the last column).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "circuit,critical_path,budget,schedule_steps,pm_muxes,\
             shutdown_reduction,slowdown_reduction,combined_reduction,\
             energy,area,on_front,error\n",
        );
        for c in &self.circuits {
            for p in &c.points {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},",
                    csv_field(&c.circuit),
                    c.critical_path,
                    p.budget,
                    p.schedule_steps,
                    p.pm_muxes,
                    json_number(p.shutdown_reduction),
                    json_number(p.slowdown_reduction),
                    json_number(p.combined_reduction),
                    json_number(p.energy),
                    json_number(p.area),
                    p.on_front,
                );
            }
            for (budget, error) in &c.failures {
                let _ = writeln!(
                    out,
                    "{},{},{budget},,,,,,,,,{}",
                    csv_field(&c.circuit),
                    c.critical_path,
                    csv_field(error)
                );
            }
        }
        out
    }

    /// Renders a human-readable per-circuit table with the front marked.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Pareto exploration — policy {}, voltage {}, branch model {}\n\n",
            self.policy, self.voltage, self.branch_model
        );
        for c in &self.circuits {
            let _ = writeln!(out, "{} (critical path {}):", c.circuit, c.critical_path);
            let _ = writeln!(
                out,
                "  {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}  front",
                "Budget", "Steps", "Muxs", "Shut(%)", "Slow(%)", "Comb(%)", "Energy", "Area"
            );
            for p in &c.points {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>5} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.3} {:>9.1}  {}",
                    p.budget,
                    p.schedule_steps,
                    p.pm_muxes,
                    p.shutdown_reduction,
                    p.slowdown_reduction,
                    p.combined_reduction,
                    p.energy,
                    p.area,
                    if p.on_front { "*" } else { "" }
                );
            }
            for (budget, error) in &c.failures {
                let _ = writeln!(out, "  {budget:>6} error: {error}");
            }
            out.push('\n');
        }
        out
    }
}

/// Marks the non-dominated points of a budget walk under the 3-objective
/// (budget ↓, energy ↓, area ↓) order of [`dominates`] — O(n²) pairwise,
/// which is exact and cheap at budget-walk sizes.  With only the energy
/// objective varying this degenerates to the 2-objective rule (reduction
/// strictly improving with the budget); area keeps otherwise-dominated
/// points alive when a longer budget buys a smaller datapath.
fn mark_front(points: &mut [ExplorePoint]) {
    let objectives = |p: &ExplorePoint| [f64::from(p.budget), p.energy, p.area];
    for i in 0..points.len() {
        let point = objectives(&points[i]);
        let dominated = points.iter().any(|other| dominates(objectives(other), point));
        points[i].on_front = !dominated;
    }
}

impl Engine {
    /// Explores the latency–power trade-off of every requested circuit and
    /// returns the per-circuit points and fronts.
    ///
    /// Every (circuit, budget) point is one task on `threads` workers
    /// (0 = one per CPU), and the points are assembled in request order,
    /// then budget order, so the report — like the sweep report — is
    /// identical for every thread count.  Failures (unknown circuits,
    /// degenerate estimates) are recorded per budget, never aborting the
    /// exploration.
    ///
    /// No point above [`MAX_LATENCY`] is planned: a fixed budget above it
    /// is recorded as a failure of its own, and a range walk whose ceiling
    /// resolves above it records one failure at the ceiling and walks
    /// nothing.
    ///
    /// Unlike [`Engine::run`], this path bypasses the prefix memo cache:
    /// each budget point is computed from scratch (one selection loop and
    /// the final HYPER pass) and shares no state with the next.
    pub fn explore(
        &self,
        requests: &[ExploreRequest],
        options: &ExploreOptions,
        threads: usize,
    ) -> ParetoReport {
        self.explore_controlled(requests, options, threads, None, None)
            .expect("an exploration without a cancel flag cannot be cancelled")
    }

    /// [`Engine::explore`] with cooperative cancellation and progress hooks
    /// (the service entry point, mirroring [`Engine::run_controlled`]).
    ///
    /// One progress item is one (circuit, budget) point; an unknown circuit
    /// and a budget above [`MAX_LATENCY`] contribute none.  `cancel` is
    /// checked at point boundaries: once set, no further point starts and
    /// the exploration returns `None`; an uncancelled exploration returns a
    /// report bit-identical to [`Engine::explore`]'s.
    pub fn explore_controlled(
        &self,
        requests: &[ExploreRequest],
        options: &ExploreOptions,
        threads: usize,
        cancel: Option<&AtomicBool>,
        progress: Option<&(dyn Fn(crate::Progress) + Sync)>,
    ) -> Option<ParetoReport> {
        // Plan every point: request order, then ascending budget order.
        // Budgets above the limit are refused here, before any is planned.
        let mut points: Vec<(&Cdfg, u32)> = Vec::new();
        let walks: Vec<_> = requests
            .iter()
            .map(|request| {
                let cdfg: &Cdfg = self.circuit(&request.circuit)?;
                let critical_path = cdfg.critical_path_length();
                let planned = points.len();
                let mut refused = Vec::new();
                match options.policy {
                    BudgetPolicy::Fixed => {
                        let mut budgets = request.budgets.clone();
                        budgets.sort_unstable();
                        budgets.dedup();
                        for budget in budgets {
                            if budget > MAX_LATENCY {
                                refused.push((budget, over_limit("budget", budget)));
                            } else {
                                points.push((cdfg, budget));
                            }
                        }
                    }
                    BudgetPolicy::FullRange | BudgetPolicy::Pareto => {
                        let ceiling = options.ceiling.resolve(critical_path);
                        if ceiling > MAX_LATENCY {
                            refused.push((ceiling, over_limit("budget ceiling", ceiling)));
                        } else {
                            points.extend((critical_path..=ceiling).map(|budget| (cdfg, budget)));
                        }
                    }
                }
                Some((critical_path, points.len() - planned, refused))
            })
            .collect();
        let mut outcomes = pool::parallel_map_controlled(
            points,
            threads,
            &|(cdfg, budget)| (budget, explore_point(cdfg, budget, options)),
            pool::MapControl { cancel, progress },
        )?
        .into_iter();

        let circuits = requests
            .iter()
            .zip(walks)
            .map(|(request, walk)| {
                let circuit = request.circuit.clone();
                let Some((critical_path, planned, refused)) = walk else {
                    let failures = vec![(0, format!("unknown circuit `{circuit}`"))];
                    return CircuitExploration {
                        circuit,
                        critical_path: 0,
                        points: Vec::new(),
                        failures,
                    };
                };
                let mut points = Vec::with_capacity(planned);
                let mut failures = Vec::new();
                for (budget, outcome) in outcomes.by_ref().take(planned) {
                    match outcome {
                        Ok(point) => points.push(point),
                        Err(e) => failures.push((budget, e)),
                    }
                }
                // Every refused budget lies above every planned one.
                failures.extend(refused);
                mark_front(&mut points);
                if options.policy == BudgetPolicy::Pareto {
                    points.retain(|p| p.on_front);
                }
                CircuitExploration { circuit, critical_path, points, failures }
            })
            .collect();
        Some(ParetoReport {
            policy: options.policy,
            voltage: options.voltage,
            branch_model: options.branch_model,
            circuits,
        })
    }
}

/// The failure recorded for a budget (`what` names it) above
/// [`MAX_LATENCY`]; the wire refuses the same values in the same words.
fn over_limit(what: &str, steps: u32) -> String {
    format!("{what} {steps} exceeds MAX_LATENCY ({MAX_LATENCY} steps)")
}

/// Scores one (circuit, budget) point: one `power_manage` call, then the
/// energy and area under the voltage policy.  It reads nothing but its
/// arguments, so points may run in any order on any worker.
fn explore_point(
    cdfg: &Cdfg,
    budget: u32,
    options: &ExploreOptions,
) -> Result<ExplorePoint, String> {
    let result = power_manage(cdfg, &PowerManagementOptions::with_latency(budget))
        .map_err(|e| e.to_string())?;
    let weights = OpWeights::paper_power();
    let probs = select_probabilities(&result, options.branch_model);
    let pm_cdfg = result.cdfg();
    // Each policy yields a level table and a per-op assignment into it;
    // `shared_supply` says whether all operations sit at one voltage, in
    // which case the plain (single-partition) binding prices the area.
    let (table, assignment, shared_supply) = match options.voltage {
        VoltagePolicy::Global(scaling) => {
            // One global curve over each op's allotted delay, as a
            // degenerate table with one level per delay.
            let delays = allotted_delays(pm_cdfg, result.schedule(), result.latency());
            let table = VoltageTable::from_scaling(scaling, result.latency().max(1));
            let slots = pm_cdfg.slices().slot_count();
            let assignment = VoltageAssignment::from_delays(&table, &delays, slots);
            (table, assignment, true)
        }
        VoltagePolicy::PerOp(preset) => {
            // Per-op levels from the slack-distribution kernel, priced by
            // expected execution (weight × activation probability).  Units
            // are shared only within one level.
            let table = preset.table();
            let activation = result.activation(&probs);
            let node_weight =
                |n: cdfg::NodeId| weights.weight(pm_cdfg.op(n).class()) * activation.probability(n);
            let picked = sched::dvs::distribute_slack(
                pm_cdfg,
                result.latency(),
                &table.slack_levels(),
                &node_weight,
                &mut sched::dvs::Workspace::new(),
            )
            .map_err(|e| e.to_string())?;
            (table, VoltageAssignment::from_levels(picked.levels().to_vec()), false)
        }
    };
    let estimate = voltage_scaled_estimate(&result, &probs, &weights, &table, &assignment)
        .map_err(|e| e.to_string())?;
    let partition = |n| if shared_supply { 0 } else { assignment.level_of(n) };
    let datapath = Datapath::build_partitioned(pm_cdfg, result.schedule(), &partition)
        .map_err(|e| e.to_string())?;
    Ok(ExplorePoint {
        budget,
        schedule_steps: result.schedule().num_steps(),
        pm_muxes: result.managed_mux_count(),
        shutdown_reduction: estimate.shutdown_reduction_percent,
        slowdown_reduction: estimate.slowdown_reduction_percent,
        combined_reduction: estimate.combined_reduction_percent,
        energy: estimate.scaled_weighted,
        area: AreaModel::new().estimate(&datapath).total(),
        on_front: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_range(scaling: DelayScaling) -> ExploreOptions {
        ExploreOptions::new()
            .policy(BudgetPolicy::FullRange)
            .ceiling(BudgetCeiling::CriticalPathPlus(4))
            .voltage(VoltagePolicy::Global(scaling))
    }

    #[test]
    fn full_range_covers_critical_path_to_ceiling() {
        let engine = Engine::new();
        let report = engine.explore(
            &[ExploreRequest::new("abs_diff")],
            &full_range(DelayScaling::Quadratic),
            1,
        );
        let c = report.circuit("abs_diff").unwrap();
        assert_eq!(c.critical_path, 2);
        let budgets: Vec<u32> = c.points.iter().map(|p| p.budget).collect();
        assert_eq!(budgets, vec![2, 3, 4, 5, 6]);
        assert!(c.failures.is_empty());
        assert_eq!(report.failure_count(), 0);
    }

    #[test]
    fn fronts_are_strictly_improving_and_pareto_policy_keeps_only_them() {
        let engine = Engine::new();
        let full = engine.explore(
            &[ExploreRequest::new("dealer")],
            &full_range(DelayScaling::Quadratic),
            1,
        );
        let pareto = engine.explore(
            &[ExploreRequest::new("dealer")],
            &full_range(DelayScaling::Quadratic).policy(BudgetPolicy::Pareto),
            1,
        );
        let full_front: Vec<&ExplorePoint> = full.circuit("dealer").unwrap().front().collect();
        let pareto_points = &pareto.circuit("dealer").unwrap().points;
        assert_eq!(full_front.len(), pareto_points.len());
        for (a, b) in full_front.iter().zip(pareto_points) {
            assert_eq!(a.budget, b.budget);
            assert_eq!(a.combined_reduction, b.combined_reduction);
            assert_eq!(a.energy, b.energy);
            assert_eq!(a.area, b.area);
            assert!(b.on_front);
        }
        // The 3-objective non-domination invariant: a later (costlier
        // budget) front point must improve energy or area over every
        // earlier front point — otherwise the earlier one dominates it.
        for (i, a) in pareto_points.iter().enumerate() {
            for b in &pareto_points[i + 1..] {
                assert!(a.budget < b.budget);
                assert!(
                    b.energy.total_cmp(&a.energy).is_lt() || b.area.total_cmp(&a.area).is_lt(),
                    "budget {} is dominated by budget {}",
                    b.budget,
                    a.budget
                );
            }
        }
    }

    #[test]
    fn fixed_policy_visits_exactly_the_requested_budgets() {
        let engine = Engine::new();
        let report = engine.explore(
            &[ExploreRequest::new("gcd").budgets([7, 5, 6, 5])],
            &ExploreOptions::new(),
            1,
        );
        let c = report.circuit("gcd").unwrap();
        let budgets: Vec<u32> = c.points.iter().map(|p| p.budget).collect();
        assert_eq!(budgets, vec![5, 6, 7], "sorted and deduplicated");
        // Under the default (paper) model there is no slowdown component.
        assert!(c.points.iter().all(|p| p.slowdown_reduction == 0.0));
        assert!(c
            .points
            .iter()
            .all(|p| (p.combined_reduction - p.shutdown_reduction).abs() < 1e-9));
    }

    #[test]
    fn infeasible_and_unknown_requests_become_failures() {
        let engine = Engine::new();
        let report = engine.explore(
            &[ExploreRequest::new("nonexistent"), ExploreRequest::new("dealer").budgets([1, 6])],
            &ExploreOptions::new(),
            2,
        );
        assert_eq!(report.failure_count(), 2);
        let unknown = report.circuit("nonexistent").unwrap();
        assert!(unknown.failures[0].1.contains("unknown circuit"));
        let dealer = report.circuit("dealer").unwrap();
        assert_eq!(dealer.failures.len(), 1, "budget 1 is below dealer's critical path");
        assert_eq!(dealer.failures[0].0, 1);
        assert_eq!(dealer.points.len(), 1, "budget 6 still succeeds");
    }

    #[test]
    fn a_zero_budget_is_a_recorded_failure_not_a_panic() {
        let engine = Engine::new();
        let report = engine.explore(
            &[ExploreRequest::new("dealer").budgets([0, 6])],
            &ExploreOptions::new(),
            1,
        );
        let dealer = report.circuit("dealer").unwrap();
        assert_eq!(dealer.failures.len(), 1);
        assert_eq!(dealer.failures[0].0, 0);
        assert!(dealer.failures[0].1.contains("latency of 0"), "{:?}", dealer.failures);
        assert_eq!(dealer.points.len(), 1, "budget 6 still succeeds");
    }

    #[test]
    fn budgets_above_max_latency_are_failures_not_plans() {
        // Each of these would plan billions of points (or size kernel rows
        // for a billion steps) if the explorer did not refuse it first.
        let engine = Engine::new();
        let requests = [ExploreRequest::new("abs_diff")];
        for ceiling in
            [BudgetCeiling::CriticalPathPlus(u32::MAX), BudgetCeiling::Absolute(u32::MAX)]
        {
            let options = full_range(DelayScaling::Quadratic).ceiling(ceiling);
            let walk = engine.explore(&requests, &options, 2).circuits.remove(0);
            assert!(walk.points.is_empty(), "{ceiling:?}");
            assert_eq!(
                walk.failures,
                vec![(
                    u32::MAX,
                    "budget ceiling 4294967295 exceeds MAX_LATENCY (4096 steps)".to_owned()
                )],
                "{ceiling:?}"
            );
        }
        let report = engine.explore(
            &[ExploreRequest::new("abs_diff").budgets([MAX_LATENCY + 1, 3, MAX_LATENCY])],
            &ExploreOptions::new(),
            2,
        );
        let fixed = report.circuit("abs_diff").unwrap();
        let budgets: Vec<u32> = fixed.points.iter().map(|p| p.budget).collect();
        assert_eq!(budgets, vec![3, MAX_LATENCY], "the request's other budgets still run");
        assert_eq!(
            fixed.failures,
            vec![(MAX_LATENCY + 1, "budget 4097 exceeds MAX_LATENCY (4096 steps)".to_owned())]
        );
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let engine = Engine::new();
        let requests: Vec<ExploreRequest> =
            ["dealer", "gcd", "vender", "abs_diff"].map(ExploreRequest::new).to_vec();
        for voltage in [
            VoltagePolicy::Global(DelayScaling::Linear),
            VoltagePolicy::PerOp(VoltagePreset::FiveLevel),
        ] {
            let options =
                full_range(DelayScaling::Linear).policy(BudgetPolicy::Pareto).voltage(voltage);
            let one = engine.explore(&requests, &options, 1);
            let four = engine.explore(&requests, &options, 4);
            let eight = engine.explore(&requests, &options, 8);
            assert_eq!(one, four);
            assert_eq!(one.to_json(), four.to_json());
            assert_eq!(one.to_json(), eight.to_json());
            assert_eq!(one.to_csv(), eight.to_csv());
        }
    }

    #[test]
    fn explore_progress_ticks_once_per_budget_point() {
        use std::sync::Mutex;
        let engine = Engine::new();
        let requests: Vec<ExploreRequest> =
            ["dealer", "gcd", "nonexistent"].map(ExploreRequest::new).to_vec();
        let options =
            full_range(DelayScaling::Quadratic).ceiling(BudgetCeiling::CriticalPathPlus(3));
        let plain = engine.explore(&requests, &options, 1).to_json();
        for threads in [1, 3] {
            let ticks = Mutex::new(Vec::new());
            let tick = |p: crate::Progress| ticks.lock().unwrap().push(p);
            let report =
                engine.explore_controlled(&requests, &options, threads, None, Some(&tick)).unwrap();
            let ticks = ticks.into_inner().unwrap();
            // dealer and gcd walk cp..=cp+3; the unknown circuit adds none.
            assert_eq!(ticks.len(), 8, "one callback per budget point (threads={threads})");
            assert!(ticks.iter().all(|p| p.total == 8));
            let mut completed: Vec<usize> = ticks.iter().map(|p| p.completed).collect();
            completed.sort_unstable();
            assert_eq!(completed, (1..=8).collect::<Vec<_>>());
            assert_eq!(report.to_json(), plain, "threads={threads}");
        }
    }

    #[test]
    fn cancelled_exploration_returns_none_and_a_clear_flag_changes_nothing() {
        use std::sync::atomic::Ordering;
        let engine = Engine::new();
        let requests: Vec<ExploreRequest> = ["dealer", "gcd"].map(ExploreRequest::new).to_vec();
        let options = full_range(DelayScaling::Linear);
        let cancel = AtomicBool::new(true);
        assert!(engine.explore_controlled(&requests, &options, 2, Some(&cancel), None).is_none());
        cancel.store(false, Ordering::SeqCst);
        let controlled =
            engine.explore_controlled(&requests, &options, 2, Some(&cancel), None).unwrap();
        assert_eq!(controlled.to_json(), engine.explore(&requests, &options, 1).to_json());
    }

    #[test]
    fn cancelling_mid_walk_stops_at_a_budget_point_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let engine = Engine::new();
        let requests = [ExploreRequest::new("dealer")];
        let options =
            full_range(DelayScaling::Quadratic).ceiling(BudgetCeiling::CriticalPathPlus(8));
        let cancel = AtomicBool::new(false);
        let seen = AtomicUsize::new(0);
        let tick = |p: crate::Progress| {
            seen.fetch_max(p.completed, Ordering::SeqCst);
            if p.completed >= 2 {
                cancel.store(true, Ordering::SeqCst);
            }
        };
        let out = engine.explore_controlled(&requests, &options, 1, Some(&cancel), Some(&tick));
        assert!(out.is_none(), "cancellation discards the partial walk");
        let seen = seen.load(Ordering::SeqCst);
        assert!((2..9).contains(&seen), "stopped after the boundary tick, before the end: {seen}");
    }

    #[test]
    fn mark_front_ranks_with_total_cmp() {
        let point = |budget, energy: f64, area: f64| ExplorePoint {
            budget,
            schedule_steps: budget,
            pm_muxes: 0,
            shutdown_reduction: 0.0,
            slowdown_reduction: 0.0,
            combined_reduction: -energy,
            energy,
            area,
            on_front: false,
        };
        // Exact energy/area ties at a higher budget are dominated; a worse
        // energy survives when its area strictly improves; NaN energy ranks
        // above every finite value under total_cmp so it is dominated by
        // any cheaper finite point with no worse area — all
        // deterministically, which is what byte-identical reruns need.
        let mut points = vec![
            point(2, 10.0, 50.0),
            point(3, 10.0, 50.0),
            point(4, 12.0, 40.0),
            point(5, f64::NAN, 50.0),
            point(6, 5.0, 60.0),
        ];
        mark_front(&mut points);
        assert_eq!(
            points.iter().map(|p| p.on_front).collect::<Vec<_>>(),
            vec![true, false, true, false, true]
        );
        // Identical coordinates at the *same* budget do not eliminate each
        // other (neither strictly improves), keeping mark_front symmetric.
        let mut twins = vec![point(2, 1.0, 1.0), point(2, 1.0, 1.0)];
        mark_front(&mut twins);
        assert!(twins.iter().all(|p| p.on_front));
    }

    #[test]
    fn labels_roundtrip() {
        for policy in BudgetPolicy::ALL {
            assert_eq!(BudgetPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(BudgetPolicy::parse("adaptive"), None);
        assert_eq!(BudgetCeiling::Absolute(3).resolve(5), 5, "never below the critical path");
        assert_eq!(BudgetCeiling::Absolute(9).resolve(5), 9);
        assert_eq!(BudgetCeiling::CriticalPathPlus(4).resolve(5), 9);
    }

    #[test]
    fn json_and_csv_are_stable_and_complete() {
        let engine = Engine::new();
        let report = engine.explore(
            &[ExploreRequest::new("abs_diff"), ExploreRequest::new("nope")],
            &full_range(DelayScaling::Quadratic),
            2,
        );
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "emission is deterministic");
        assert!(json.contains("\"policy\": \"full-range\""));
        assert!(json.contains("\"voltage\": \"global-quadratic\""));
        assert!(json.contains("\"energy\": "));
        assert!(json.contains("\"area\": "));
        assert!(json.contains("\"on_front\": true"));
        assert!(json.contains("unknown circuit"));
        let csv = report.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.starts_with("circuit,critical_path,budget"));
        assert!(header.contains(",energy,area,on_front,"));
        assert_eq!(csv.lines().count(), 1 + 5 + 1, "header + 5 points + 1 failure row");
        let text = report.render();
        assert!(text.contains("abs_diff (critical path 2):"));
        assert!(text.contains("Comb(%)"));
        assert!(text.contains("Energy"));
    }

    #[test]
    fn per_op_policies_explore_and_partition_area() {
        let engine = Engine::new();
        let global =
            engine.explore(&[ExploreRequest::new("dealer")], &full_range(DelayScaling::None), 1);
        let per_op = engine.explore(
            &[ExploreRequest::new("dealer")],
            &ExploreOptions::new()
                .policy(BudgetPolicy::FullRange)
                .ceiling(BudgetCeiling::CriticalPathPlus(4))
                .voltage(VoltagePolicy::PerOp(VoltagePreset::ThreeLevel)),
            1,
        );
        let g = global.circuit("dealer").unwrap();
        let p = per_op.circuit("dealer").unwrap();
        assert_eq!(per_op.voltage, VoltagePolicy::PerOp(VoltagePreset::ThreeLevel));
        assert!(p.failures.is_empty(), "{:?}", p.failures);
        assert_eq!(g.points.len(), p.points.len());
        let mut area_moved = false;
        for (a, b) in g.points.iter().zip(&p.points) {
            assert_eq!(a.budget, b.budget);
            // Per-op levels only ever lower the energy relative to the
            // shutdown-only model.
            assert!(b.energy.total_cmp(&a.energy).is_le(), "budget {}", a.budget);
            // Voltage partitioning never removes units, but splitting a
            // shared unit also deletes its steering multiplexors, so the
            // *total* area can move either way — only require that it is a
            // real, finite figure and that the partition bites somewhere.
            assert!(b.area.is_finite() && b.area > 0.0, "budget {}", a.budget);
            area_moved |= b.area.to_bits() != a.area.to_bits();
        }
        assert!(area_moved, "voltage partitioning should change the datapath somewhere");
        // With real slack the levels actually bite.
        let widest = p.points.last().unwrap();
        assert!(widest.slowdown_reduction > 0.0, "slack should buy slowdown savings");
    }
}
