//! A parallel scenario-sweep engine for the whole power-management
//! pipeline.
//!
//! The paper's results are single points — one circuit, one latency bound,
//! one branch-probability model.  Its central claim (scheduling the
//! controlling operations early buys shut-down slack) is really a family of
//! trade-off curves, and this crate turns the end-to-end flow (benchmark →
//! CDFG → schedule → bind → RTL → power estimate) into a batch service that
//! maps out those curves:
//!
//! * [`Scenario`] — one point of the matrix
//!   {circuit × latency bound × scheduler × pipeline depth ×
//!   mux-reordering × branch-probability model},
//! * [`SweepPlan`] — a builder that expands a matrix into a deduplicated,
//!   canonically ordered work list,
//! * [`Engine`] — executes a plan on a hand-rolled `std::thread`
//!   work-stealing pool ([`pool`]) with deterministic result ordering,
//! * [`SweepReport`] — typed results with JSON/CSV emitters, per-circuit
//!   min/median/max savings and a Pareto front over latency vs. predicted
//!   power reduction.
//!
//! # Cache keying
//!
//! The expensive part of a scenario is its *pipeline prefix*: building the
//! CDFG and running the power-management scheduling pass.  That prefix is
//! fully determined by `(circuit, effective latency, scheduler, reorder)` —
//! the branch-probability model only affects the (cheap) expected-execution
//! evaluation, and scenarios with different `(latency, pipeline depth)`
//! factorings of the same effective latency share one schedule.  The engine
//! therefore memoises prefixes in a compute-once [`cache::MemoCache`]; a
//! sweep of N branch models over one circuit/latency runs the scheduler
//! once, and the memoisation is exact, so cached results are bit-identical
//! to cold ones (a property the determinism tests pin down).
//!
//! # Quick start
//!
//! ```
//! use engine::{Engine, SweepPlan};
//!
//! # fn main() -> Result<(), engine::EngineError> {
//! let plan = SweepPlan::builder()
//!     .circuits(["dealer", "gcd"])
//!     .latencies([5, 6])
//!     .reorder([false, true])
//!     .build()?;
//! let engine = Engine::new();
//! let report = engine.run(&plan, 2);
//! assert_eq!(report.records.len(), 8);
//! assert!(report.failure_count() == 0);
//! println!("{}", report.render());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod online;
pub mod pareto;
pub mod plan;
pub mod pool;
pub mod report;
pub mod scenario;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cdfg::{Cdfg, OpClass};
use pmsched::{
    pipeline_register_estimate, power_manage, OpWeights, PowerManagementOptions,
    PowerManagementResult, SelectProbabilities,
};
use power::{gate_level_with_result, GateLevelOptions};
use sched::{hyper, ResourceConstraint};

pub use crate::cache::CacheStats;
pub use crate::error::EngineError;
pub use crate::online::{
    run_stream, run_stream_verified, EventMetrics, EventRecord, OnlineReport, OnlineSummary,
    SessionState, VerifiedOutcome,
};
pub use crate::pareto::{
    BudgetCeiling, BudgetPolicy, CircuitExploration, DelayScaling, ExploreOptions, ExplorePoint,
    ExploreRequest, ParetoReport, VoltagePolicy, VoltagePreset,
};
pub use crate::plan::{GateLevelSpec, SweepPlan, SweepPlanBuilder};
pub use crate::report::{
    CircuitSummary, GateMetrics, ParetoPoint, ScenarioMetrics, SweepRecord, SweepReport,
};
pub use crate::scenario::{BranchModel, Scenario, SchedulerKind};

/// The largest latency the engine plans for, in control steps.
///
/// [`SweepPlanBuilder::build`] refuses a scenario whose effective latency
/// (`latency × pipeline_depth`) is larger, with
/// [`EngineError::LatencyTooLarge`]: every latency allocates per-step rows
/// in the scheduling kernels.  [`Engine::explore`] records a budget, or a
/// resolved budget ceiling, above the limit as a failure and plans no point
/// for it.  The sweep service refuses the same limit on the wire for a
/// scenario latency, an explore budget and an `absolute` or `cp-plus`
/// budget ceiling.  The largest latency any committed study uses is 106.
pub const MAX_LATENCY: u32 = 4096;

/// Permutation bound for the reordering search (matches the exhaustive
/// limit the Section IV-A ablation uses).
const REORDER_EXHAUSTIVE_LIMIT: usize = 5;

/// Progress of a running sweep, exploration or online stream: work items
/// completed out of the total the run folds or maps.
///
/// For [`Engine::run_controlled`] an item is one scenario (failed
/// scenarios count too — they are part of the plan); for
/// [`Engine::explore_controlled`] an item is one (circuit, budget) point
/// (failed budgets count too; an unknown circuit contributes none); for
/// [`online::run_stream`] an item is one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Items finished so far.
    pub completed: usize,
    /// Total items in the run.
    pub total: usize,
}

/// The cooperative hooks every long-running entry point takes:
/// [`Engine::run_controlled`], [`Engine::explore_controlled`],
/// [`online::run_stream`] and the pool under the first two,
/// [`pool::parallel_map`].  `Hooks::default()` observes nothing.
///
/// Both hooks act at *item boundaries* only — an in-flight scenario,
/// budget point or event always finishes — so a caller can stop a run
/// without tearing an item in half, and an uncancelled run's output is
/// bit-identical with or without hooks.
#[derive(Clone, Copy, Default)]
pub struct Hooks<'a> {
    /// Checked before each item starts; once set, no further item starts
    /// and the entry point returns `None`, discarding the partial results.
    pub cancel: Option<&'a AtomicBool>,
    /// Called after each completed item.  Pool workers call it
    /// concurrently, so it must be `Sync`; the completed counts are unique
    /// and cover `1..=total` exactly once on an uncancelled run.
    pub progress: Option<&'a (dyn Fn(Progress) + Sync)>,
}

impl Hooks<'_> {
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    fn tick(&self, completed: usize, total: usize) {
        if let Some(progress) = self.progress {
            progress(Progress { completed, total });
        }
    }
}

/// Cache key of a pipeline prefix; see the crate-level documentation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrefixKey {
    circuit: String,
    effective_latency: u32,
    scheduler: SchedulerKind,
    reorder: bool,
}

/// Cached prefix value: the scheduling result, or the error message it
/// failed with (negative caching — an infeasible latency stays infeasible).
type PrefixValue = Result<Arc<PowerManagementResult>, String>;

/// The scenario-sweep engine: a circuit registry plus the memo cache.
///
/// One engine may run any number of plans; the cache is shared across runs,
/// so repeated or overlapping sweeps get warmer and warmer.
#[derive(Debug)]
pub struct Engine {
    circuits: BTreeMap<String, Arc<Cdfg>>,
    cache: cache::MemoCache<PrefixKey, PrefixValue>,
}

impl Engine {
    /// An engine preloaded with every benchmark circuit of the paper
    /// (Table I: `dealer`, `gcd`, `vender`, `cordic`) plus the `abs_diff`
    /// walkthrough of Figures 1 and 2.
    pub fn new() -> Self {
        let mut engine = Engine { circuits: BTreeMap::new(), cache: cache::MemoCache::new() };
        engine.register_benchmarks(circuits::all_benchmarks());
        engine.register_circuit(circuits::abs_diff());
        engine
    }

    /// Registers an additional circuit under its CDFG name, replacing any
    /// previous circuit with that name.
    pub fn register_circuit(&mut self, cdfg: Cdfg) {
        self.circuits.insert(cdfg.name().to_owned(), Arc::new(cdfg));
    }

    /// Registers every circuit of a batch of benchmarks under its benchmark
    /// name — the entry point for generated workloads (`crates/gen`), whose
    /// names embed the generator seed and parameters and thereby key the
    /// prefix cache.
    pub fn register_benchmarks<I>(&mut self, benches: I)
    where
        I: IntoIterator<Item = circuits::Benchmark>,
    {
        for bench in benches {
            debug_assert_eq!(bench.name, bench.cdfg.name(), "benchmark/CDFG name mismatch");
            self.circuits.insert(bench.name, Arc::new(bench.cdfg));
        }
    }

    /// The registered circuit names, sorted.
    pub fn circuit_names(&self) -> Vec<&str> {
        self.circuits.keys().map(String::as_str).collect()
    }

    /// Looks up a registered circuit.
    pub fn circuit(&self, name: &str) -> Option<&Arc<Cdfg>> {
        self.circuits.get(name)
    }

    /// [`Engine::run_controlled`] without hooks.  It stays for the
    /// `perfbench` benchmark, which compiles against it.
    pub fn run(&self, plan: &SweepPlan, threads: usize) -> SweepReport {
        self.run_controlled(plan, threads, Hooks::default())
            .expect("no cancel flag, no cancellation")
    }

    /// Executes every scenario of `plan` on `threads` worker threads
    /// (0 = one per available CPU) and returns the aggregated report, or
    /// `None` when `hooks.cancel` stopped the run (see [`Hooks`]).
    ///
    /// Scenario failures (unknown circuit, infeasible latency, simulation
    /// errors) are recorded per scenario, never panicking or aborting the
    /// sweep, and the report is identical for every thread count.
    ///
    /// The pool deals each worker one contiguous block of the plan's
    /// canonical order, which puts scenarios that differ only in branch
    /// model, and so share a pipeline prefix, side by side: they run on one
    /// worker, where the first computes the prefix and the rest hit the
    /// cache instead of waiting on another worker.
    ///
    /// One progress item is one scenario; failed scenarios count, as they
    /// are part of the plan.
    pub fn run_controlled(
        &self,
        plan: &SweepPlan,
        threads: usize,
        hooks: Hooks<'_>,
    ) -> Option<SweepReport> {
        let gate = plan.gate_level();
        let records = pool::parallel_map(
            plan.scenarios().to_vec(),
            threads,
            &|scenario| self.run_scenario(scenario, gate),
            hooks,
        )?;
        Some(SweepReport::from_records(records))
    }

    /// Hit/miss counters of the prefix cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn run_scenario(&self, scenario: Scenario, gate: Option<GateLevelSpec>) -> SweepRecord {
        let outcome = self.scenario_metrics(&scenario, gate);
        SweepRecord { scenario, outcome }
    }

    fn scenario_metrics(
        &self,
        scenario: &Scenario,
        gate: Option<GateLevelSpec>,
    ) -> Result<ScenarioMetrics, String> {
        let cdfg = self
            .circuits
            .get(&scenario.circuit)
            .ok_or_else(|| format!("unknown circuit `{}`", scenario.circuit))?;
        let result = self.prefix(cdfg, scenario)?;

        let probs = select_probabilities(&result, scenario.branch_model);
        let savings = result.savings_with(&probs, &OpWeights::paper_power());
        let expected = [
            savings.expected(OpClass::Mux),
            savings.expected(OpClass::Comp),
            savings.expected(OpClass::Add),
            savings.expected(OpClass::Sub),
            savings.expected(OpClass::Mul),
        ];
        let gate = match gate {
            None => None,
            Some(spec) => {
                let options = GateLevelOptions::new(scenario.effective_latency())
                    .samples(spec.samples)
                    .seed(spec.seed);
                let report = gate_level_with_result(cdfg, &result, &options)
                    .map_err(|e| format!("gate-level estimation failed: {e}"))?;
                Some(GateMetrics {
                    original_area: report.original_area,
                    managed_area: report.managed_area,
                    area_ratio: report.area_ratio,
                    original_power: report.original_power,
                    managed_power: report.managed_power,
                    power_reduction: report.power_reduction_percent,
                    samples: report.samples,
                })
            }
        };

        Ok(ScenarioMetrics {
            effective_latency: scenario.effective_latency(),
            schedule_steps: result.schedule().num_steps(),
            pm_muxes: result.managed_mux_count(),
            accepted_muxes: result.accepted_muxes().len(),
            control_edges: result.control_edge_count(),
            area_increase: result.area_increase(&OpWeights::paper_area()),
            expected,
            power_reduction: savings.reduction_percent,
            extra_registers: pipeline_register_estimate(
                &result,
                scenario.latency,
                scenario.pipeline_depth,
            ),
            gate,
        })
    }

    /// Computes (or fetches) the shared pipeline prefix of a scenario.
    fn prefix(
        &self,
        cdfg: &Arc<Cdfg>,
        scenario: &Scenario,
    ) -> Result<Arc<PowerManagementResult>, String> {
        let key = PrefixKey {
            circuit: scenario.circuit.clone(),
            effective_latency: scenario.effective_latency(),
            scheduler: scenario.scheduler,
            reorder: scenario.reorder,
        };
        let effective_latency = key.effective_latency;
        let scheduler = key.scheduler;
        let reorder = key.reorder;
        self.cache.get_or_compute(key, || {
            compute_prefix(cdfg, effective_latency, scheduler, reorder)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        })
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// Per-multiplexor select probabilities for a branch model: fair stays at
/// the default 0.5, a biased model sets every multiplexor to the same
/// probability of selecting its 1-input.
pub(crate) fn select_probabilities(
    result: &PowerManagementResult,
    model: BranchModel,
) -> SelectProbabilities {
    match model {
        BranchModel::Fair => SelectProbabilities::fair(),
        biased @ BranchModel::Biased { .. } => {
            let p = biased.p_select_one();
            let mut probs = SelectProbabilities::fair();
            for mux in result.cdfg().mux_nodes() {
                probs.set(mux, p);
            }
            probs
        }
    }
}

/// Runs the full power-management scheduling pass for one prefix.
fn compute_prefix(
    cdfg: &Cdfg,
    effective_latency: u32,
    scheduler: SchedulerKind,
    reorder: bool,
) -> Result<PowerManagementResult, pmsched::PowerManageError> {
    let options = match scheduler {
        SchedulerKind::ForceDirected => PowerManagementOptions::with_latency(effective_latency),
        SchedulerKind::List => {
            // Fix the allocation to what the resource-minimising scheduler
            // needs at this latency, then let list scheduling fill it.
            let minimum = hyper::minimum_resources(cdfg, effective_latency)?;
            PowerManagementOptions::with_resources(
                effective_latency,
                ResourceConstraint::Limited(minimum),
            )
        }
    };
    if reorder {
        pmsched::algorithm::power_manage_reordered(cdfg, &options, REORDER_EXHAUSTIVE_LIMIT)
    } else {
        power_manage(cdfg, &options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_registers_the_paper_circuits() {
        let engine = Engine::new();
        for name in ["dealer", "gcd", "vender", "cordic", "abs_diff"] {
            assert!(engine.circuit(name).is_some(), "{name} registered");
        }
        assert_eq!(engine.circuit_names().len(), 5);
    }

    #[test]
    fn run_matches_direct_power_manage() {
        let plan = SweepPlan::builder().case("dealer", 6).build().unwrap();
        let engine = Engine::new();
        let report = engine.run(&plan, 1);
        let metrics = report.records[0].metrics().expect("dealer@6 is feasible");

        let direct =
            power_manage(&circuits::dealer(), &PowerManagementOptions::with_latency(6)).unwrap();
        assert_eq!(metrics.pm_muxes, direct.managed_mux_count());
        assert_eq!(metrics.power_reduction, direct.savings().reduction_percent);
        assert_eq!(metrics.control_edges, direct.control_edge_count());
    }

    #[test]
    fn prefix_cache_is_shared_across_branch_models_and_factorings() {
        // 3 branch models × one case, plus a (latency 3, depth 2) scenario
        // sharing the effective latency of (latency 6, depth 1): one prefix.
        let plan = SweepPlan::builder()
            .case("dealer", 6)
            .branch_models([BranchModel::Fair, BranchModel::biased(250), BranchModel::biased(750)])
            .build()
            .unwrap();
        let engine = Engine::new();
        engine.run(&plan, 2);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one shared prefix");
        assert_eq!(stats.hits, 2);

        let pipelined =
            SweepPlan::builder().case("dealer", 3).pipeline_depths([2]).build().unwrap();
        engine.run(&pipelined, 1);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "latency 3 x depth 2 reuses the latency-6 prefix");
    }

    #[test]
    fn run_with_progress_ticks_once_per_scenario() {
        use std::sync::Mutex;
        let plan = SweepPlan::builder()
            .circuits(["dealer", "gcd"])
            .latencies([5, 6])
            .reorder([false, true])
            .build()
            .unwrap();
        let engine = Engine::new();
        for threads in [1, 3] {
            let ticks = Mutex::new(Vec::new());
            let tick = |p: Progress| ticks.lock().unwrap().push(p);
            let hooks = Hooks { cancel: None, progress: Some(&tick) };
            let report = engine.run_controlled(&plan, threads, hooks).unwrap();
            let ticks = ticks.into_inner().unwrap();
            assert_eq!(report.records.len(), 8);
            assert_eq!(ticks.len(), 8, "one callback per scenario (threads={threads})");
            assert!(ticks.iter().all(|p| p.total == 8));
            let mut completed: Vec<usize> = ticks.iter().map(|p| p.completed).collect();
            completed.sort_unstable();
            assert_eq!(completed, (1..=8).collect::<Vec<_>>());
            // And the report matches the hook-free path exactly.
            assert_eq!(report.to_json(), engine.run(&plan, 1).to_json());
        }
    }

    #[test]
    fn progress_counts_failed_scenarios_too() {
        use std::sync::atomic::AtomicUsize;
        let plan = SweepPlan::builder().case("nonexistent", 4).case("dealer", 6).build().unwrap();
        let engine = Engine::new();
        let ticks = AtomicUsize::new(0);
        let tick = |_: Progress| {
            ticks.fetch_add(1, Ordering::SeqCst);
        };
        let hooks = Hooks { cancel: None, progress: Some(&tick) };
        let report = engine.run_controlled(&plan, 1, hooks).unwrap();
        assert_eq!(report.failure_count(), 1);
        assert_eq!(ticks.into_inner(), 2);
    }

    #[test]
    fn cancelled_run_returns_none_and_a_clear_flag_changes_nothing() {
        let plan =
            SweepPlan::builder().circuits(["dealer", "gcd"]).latencies([5, 6]).build().unwrap();
        let engine = Engine::new();
        let cancel = AtomicBool::new(true);
        let hooks = Hooks { cancel: Some(&cancel), progress: None };
        assert!(engine.run_controlled(&plan, 2, hooks).is_none());
        cancel.store(false, Ordering::SeqCst);
        let controlled = engine.run_controlled(&plan, 2, hooks).unwrap();
        assert_eq!(controlled.to_json(), engine.run(&plan, 1).to_json());
    }

    #[test]
    fn cancelling_mid_run_stops_at_a_scenario_boundary() {
        let plan = SweepPlan::builder()
            .circuits(["dealer", "gcd", "vender"])
            .latencies([5, 6, 7])
            .build()
            .unwrap();
        let engine = Engine::new();
        let cancel = AtomicBool::new(false);
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let tick = |p: Progress| {
            seen.fetch_max(p.completed, Ordering::SeqCst);
            if p.completed >= 2 {
                cancel.store(true, Ordering::SeqCst);
            }
        };
        let out =
            engine.run_controlled(&plan, 1, Hooks { cancel: Some(&cancel), progress: Some(&tick) });
        assert!(out.is_none(), "cancellation discards the partial run");
        let seen = seen.load(Ordering::SeqCst);
        assert!((2..9).contains(&seen), "stopped after the boundary tick, before the end: {seen}");
    }

    #[test]
    fn unknown_circuits_and_infeasible_latencies_become_record_errors() {
        let plan = SweepPlan::builder()
            .case("nonexistent", 4)
            .case("dealer", 1) // below dealer's critical path of 4
            .build()
            .unwrap();
        let report = Engine::new().run(&plan, 2);
        assert_eq!(report.failure_count(), 2);
        let unknown = report.record_for(&Scenario::new("nonexistent", 4)).unwrap();
        assert!(unknown.error().unwrap().contains("unknown circuit"));
        let infeasible = report.record_for(&Scenario::new("dealer", 1)).unwrap();
        assert!(infeasible.error().is_some());
    }

    #[test]
    fn list_scheduler_runs_on_the_minimum_allocation() {
        let plan = SweepPlan::builder()
            .case("vender", 6)
            .schedulers([SchedulerKind::ForceDirected, SchedulerKind::List])
            .build()
            .unwrap();
        let report = Engine::new().run(&plan, 2);
        assert_eq!(report.failure_count(), 0);
        let force = report
            .record_for(&Scenario::new("vender", 6).scheduler(SchedulerKind::ForceDirected))
            .unwrap()
            .metrics()
            .unwrap();
        let list = report
            .record_for(&Scenario::new("vender", 6).scheduler(SchedulerKind::List))
            .unwrap()
            .metrics()
            .unwrap();
        // Both meet the latency; the list run may manage fewer muxes under
        // the fixed allocation but never reports a negative saving.
        assert!(list.schedule_steps <= 6 && force.schedule_steps <= 6);
        assert!(list.power_reduction >= -1e-9);
    }

    #[test]
    fn pipelining_raises_savings_for_tight_latencies() {
        let plan = SweepPlan::builder().case("vender", 5).pipeline_depths([1, 2]).build().unwrap();
        let report = Engine::new().run(&plan, 2);
        let depth1 = report.record_for(&Scenario::new("vender", 5)).unwrap().metrics().unwrap();
        let depth2 = report
            .record_for(&Scenario::new("vender", 5).pipeline_depth(2))
            .unwrap()
            .metrics()
            .unwrap();
        assert_eq!(depth2.effective_latency, 10);
        assert!(depth2.power_reduction >= depth1.power_reduction - 1e-9);
        assert!(depth2.extra_registers >= depth1.extra_registers);
    }

    #[test]
    fn pipelining_creates_slack_for_power_management() {
        // The critical path equals the throughput constraint, so without
        // pipelining there is no slack and nothing can be shut down.
        let mut g = Cdfg::new("tight");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cmp = g.add_op(cdfg::Op::Gt, &[a, b]).unwrap();
        let diff = g.add_op(cdfg::Op::Sub, &[a, b]).unwrap();
        let sum = g.add_op(cdfg::Op::Add, &[a, b]).unwrap();
        let m = g.add_mux(cmp, sum, diff).unwrap();
        g.add_output("o", m).unwrap();
        let mut engine = Engine::new();
        engine.register_circuit(g);
        let plan = SweepPlan::builder().case("tight", 2).pipeline_depths([1, 2]).build().unwrap();
        let report = engine.run(&plan, 1);
        let metrics = |depth| {
            let scenario = Scenario::new("tight", 2).pipeline_depth(depth);
            report.record_for(&scenario).unwrap().metrics().unwrap().clone()
        };
        assert_eq!(metrics(1).pm_muxes, 0, "no slack at latency 2");
        let two = metrics(2);
        assert_eq!(two.effective_latency, 4);
        assert_eq!(two.pm_muxes, 1);
        assert!(two.power_reduction > 0.0);
    }

    #[test]
    fn biased_branch_models_change_the_estimate_not_the_schedule() {
        let plan = SweepPlan::builder()
            .case("vender", 6)
            .branch_models([BranchModel::biased(0), BranchModel::Fair, BranchModel::biased(1000)])
            .build()
            .unwrap();
        let report = Engine::new().run(&plan, 1);
        let get = |model| {
            report
                .record_for(&Scenario::new("vender", 6).branch_model(model))
                .unwrap()
                .metrics()
                .unwrap()
                .clone()
        };
        let zero = get(BranchModel::biased(0));
        let fair = get(BranchModel::Fair);
        let one = get(BranchModel::biased(1000));
        // Same schedule...
        assert_eq!(zero.schedule_steps, one.schedule_steps);
        assert_eq!(zero.pm_muxes, one.pm_muxes);
        // ...but vender's multipliers sit on the 1-branches, so savings fall
        // as the selects move towards 1 (see the sensitivity module).
        assert!(zero.power_reduction > fair.power_reduction);
        assert!(fair.power_reduction > one.power_reduction);
    }

    #[test]
    fn gate_level_metrics_match_the_direct_table3_flow() {
        let plan =
            SweepPlan::builder().case("abs_diff", 3).gate_level(200, 0xDAC96).build().unwrap();
        let report = Engine::new().run(&plan, 1);
        let gate = report.records[0].metrics().unwrap().gate.clone().expect("gate requested");

        let direct = power::gate_level_comparison(
            &circuits::abs_diff(),
            &GateLevelOptions::new(3).samples(200),
        )
        .unwrap();
        assert_eq!(gate.original_area, direct.original_area);
        assert_eq!(gate.managed_power, direct.managed_power);
        assert_eq!(gate.power_reduction, direct.power_reduction_percent);
        assert_eq!(gate.samples, 200);
    }
}
