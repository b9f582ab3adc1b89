//! The `design` workload: a cold design-space analysis on a fresh engine.
//!
//! One pass runs two phases on a new [`Engine`] with two workers:
//!
//! 1. *Sweep* — [`Engine::run`] over the paper's full 240-scenario matrix
//!    (force and list schedulers, the reorder search, pipelining, three
//!    branch models) and the Table III gate-level slice, sharing prefixes
//!    through the engine's cache within the pass.
//! 2. *Explore* — [`Engine::explore`] over a seeded mixed batch with the
//!    full budget range up to cp+8 and per-op three-level voltages.
//!
//! `light_ms` is the sweep phase, `heavy_ms` the explore phase and
//! `pass_s` their sum, each including its report emission and each
//! scaled by the speed factor of calibrations around it.  The
//! traced run replays every scenario and every walk through the layers'
//! public functions and requires the replay to reproduce the engine's
//! report exactly, so the per-layer split measures the same work.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use binding::{AreaModel, Datapath};
use cdfg::{Cdfg, NodeId, OpClass};
use circuits::Benchmark;
use engine::{
    BranchModel, BudgetCeiling, BudgetPolicy, CircuitExploration, Engine, ExploreOptions,
    ExplorePoint, ExploreRequest, GateMetrics, ParetoReport, Scenario, ScenarioMetrics,
    SchedulerKind, SweepPlan, SweepReport, VoltagePolicy, VoltagePreset,
};
use pmsched::{
    pipeline_register_estimate, power_manage, MuxCones, OpWeights, PowerManagementOptions,
    PowerManagementResult, SelectProbabilities,
};
use power::voltage::{voltage_scaled_estimate, VoltageAssignment};
use power::{gate_level_with_result, GateLevelOptions};
use sched::{force, hyper, list, ResourceConstraint};

use crate::inputs::{design_batch, WORKERS};
use crate::trace::Tracer;
use crate::{gate, median_or_zero, Outcome, RunArgs};

/// Reorder-search permutation bound, as the engine uses it.
const REORDER_LIMIT: usize = 5;
/// Gate-level simulation vectors per Table III scenario.
const GATE_SAMPLES: usize = experiments::table3::DEFAULT_SAMPLES;

/// The exploration every pass runs.
pub fn explore_options() -> ExploreOptions {
    ExploreOptions::new()
        .policy(BudgetPolicy::FullRange)
        .ceiling(BudgetCeiling::CriticalPathPlus(8))
        .voltage(VoltagePolicy::PerOp(VoltagePreset::ThreeLevel))
}

/// Generated inputs and plans, built once per set-up.
pub struct Setup {
    /// The phase-two batch.
    pub batch: Vec<Benchmark>,
    /// One explore request per batch circuit, largest first.
    pub requests: Vec<ExploreRequest>,
    /// The paper's full sweep matrix.
    pub sweep_plan: SweepPlan,
    /// The Table III gate-level slice.
    pub gate_plan: SweepPlan,
}

/// Generates the batch and builds the plans.
pub fn setup(seed: u64, t: &mut Tracer) -> Setup {
    let request = t.request("design-batch");
    let batch =
        t.time("gen.generate", request, || design_batch(seed)).expect("design specs are valid");
    let requests = batch.iter().map(|b| ExploreRequest::new(b.name.as_str())).collect();
    Setup {
        batch,
        requests,
        sweep_plan: experiments::sweep::full_matrix_plan(false).expect("the paper matrix builds"),
        gate_plan: experiments::table3::table3_plan(GATE_SAMPLES),
    }
}

/// What one pass produced.
pub struct Pass {
    /// The fresh engine the pass ran on.
    pub engine: Engine,
    /// Wall time of the sweep phase, in seconds.
    pub sweep_s: f64,
    /// Wall time of the explore phase, in seconds.
    pub explore_s: f64,
    /// Speed factor of the sweep phase (see [`crate::calibrated`]).
    pub sweep_factor: f64,
    /// Speed factor of the explore phase.
    pub explore_factor: f64,
    /// The phase-one reports.
    pub sweep: SweepReport,
    /// The Table III slice's report.
    pub gate: SweepReport,
    /// The phase-two report.
    pub explore: ParetoReport,
    /// Phase-one JSON (sweep then gate-level slice).
    pub sweep_json: String,
    /// Phase-two JSON.
    pub explore_json: String,
}

/// Runs one pass; `t` records the top-level calls when enabled.  Each
/// phase is bracketed by calibrations, so each gets its own speed factor.
pub fn pass(setup: &Setup, t: &mut Tracer) -> Pass {
    let mut engine = Engine::new();
    engine.register_benchmarks(setup.batch.iter().cloned());

    let before = crate::calibrate();
    let phase = t.request("phase-one");
    let sweep_start = Instant::now();
    let sweep = t.time("engine.run", phase, || engine.run(&setup.sweep_plan, WORKERS));
    let gate = t.time("engine.run", phase, || engine.run(&setup.gate_plan, WORKERS));
    let sweep_json = t.time("engine.report_json", phase, || sweep.to_json() + &gate.to_json());
    let sweep_s = sweep_start.elapsed().as_secs_f64();

    let between = crate::calibrate();
    let phase = t.request("phase-two");
    let explore_start = Instant::now();
    let explore = t.time("engine.explore", phase, || {
        engine.explore(&setup.requests, &explore_options(), WORKERS)
    });
    let explore_json = t.time("engine.report_json", phase, || explore.to_json());
    let explore_s = explore_start.elapsed().as_secs_f64();
    let after = crate::calibrate();

    Pass {
        engine,
        sweep_s,
        explore_s,
        sweep_factor: crate::CALIBRATION_REF_S * 2.0 / (before + between),
        explore_factor: crate::CALIBRATION_REF_S * 2.0 / (between + after),
        sweep,
        gate,
        explore,
        sweep_json,
        explore_json,
    }
}

/// Checks one pass's outputs; `first_explore` is the digest of the run's
/// first exploration, which every later pass must repeat.
pub fn check_pass(seed: u64, p: &Pass, first_explore: &mut Option<u64>, out: &mut Outcome) {
    let points: usize = p.explore.circuits.iter().map(|c| c.points.len() + c.failures.len()).sum();
    out.attempted += (p.sweep.records.len() + p.gate.records.len() + points) as u64;
    for record in p.sweep.records.iter().chain(&p.gate.records) {
        if let Some(error) = record.error() {
            out.fail(format!("scenario {:?} failed: {error}", record.scenario));
        }
    }
    out.check(gate::check_pin("sweep", seed, &p.sweep_json));
    out.check(gate::check_fronts(&p.explore));
    let digest = gate::fnv1a64(p.explore_json.as_bytes());
    match *first_explore {
        None => {
            out.check(gate::check_pin("design", seed, &p.explore_json));
            *first_explore = Some(digest);
        }
        Some(first) if first != digest => {
            out.fail(format!("exploration digest {digest:016x} differs from the first pass"));
        }
        Some(_) => {}
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = crate::repeated_setup(|_| setup(args.seed, &mut Tracer::disabled()));
    let (mut sweep, mut explore, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let (mut factors, mut wall) = (Vec::new(), Vec::new());
    let mut first = None;
    crate::repeat_for(args.seconds, 3, |_| {
        let p = pass(&setup, &mut Tracer::disabled());
        check_pass(args.seed, &p, &mut first, &mut out);
        sweep.push(p.sweep_s * p.sweep_factor * 1e3);
        explore.push(p.explore_s * p.explore_factor * 1e3);
        total.push(p.sweep_s * p.sweep_factor + p.explore_s * p.explore_factor);
        wall.push((p.sweep_s, p.explore_s));
        factors.push(p.explore_factor);
    });
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.set("pass_s", median_or_zero(&total));
    out.set("light_ms", median_or_zero(&sweep));
    out.set("heavy_ms", median_or_zero(&explore));
    out.line(format!(
        "passes: {} (seed {}), speed factor {:.4}",
        total.len(),
        args.seed,
        median_or_zero(&factors)
    ));
    let (wall_sweep, wall_explore): (Vec<f64>, Vec<f64>) = wall.into_iter().unzip();
    out.line(format!(
        "sweep_s: {:.4} s calibrated, {:.4} s wall (medians of {} passes)",
        median_or_zero(&sweep) / 1e3,
        median_or_zero(&wall_sweep),
        sweep.len()
    ));
    out.line(format!(
        "explore_s: {:.4} s calibrated, {:.4} s wall (medians of {} passes)",
        median_or_zero(&explore) / 1e3,
        median_or_zero(&wall_explore),
        explore.len()
    ));
    out
}

/// Work counters the replay accumulates next to its spans.
#[derive(Default)]
struct Counters {
    force_calls: usize,
    candidate_muxes: usize,
    accepted_muxes: usize,
}

/// Select probabilities of a branch model, as the engine derives them.
fn select_probabilities(result: &PowerManagementResult, model: BranchModel) -> SelectProbabilities {
    let mut probs = SelectProbabilities::fair();
    if let BranchModel::Biased { .. } = model {
        for mux in result.cdfg().mux_nodes() {
            probs.set(mux, model.p_select_one());
        }
    }
    probs
}

/// `power_manage` with the force-directed kernel probed: the baseline and
/// final schedules it produced are re-run through `force::schedule` on
/// the same graphs and must come out identical.
fn power_manage_probed(
    cdfg: &Cdfg,
    options: &PowerManagementOptions,
    request: u32,
    t: &mut Tracer,
    counters: &mut Counters,
) -> Result<PowerManagementResult, String> {
    t.time("pmsched.analyze_all", request, || MuxCones::analyze_all(cdfg));
    let result = t
        .time("pmsched.power_manage", request, || power_manage(cdfg, options))
        .map_err(|e| e.to_string())?;
    if options.resources == ResourceConstraint::Unlimited {
        let latency = options.latency;
        let baseline = t.time("sched.force", request, || force::schedule(cdfg, latency));
        let last = t.time("sched.force", request, || force::schedule(result.cdfg(), latency));
        counters.force_calls += 2;
        if baseline.as_ref().ok() != Some(result.baseline_schedule())
            || last.as_ref().ok() != Some(result.schedule())
        {
            return Err(format!("{}@{latency}: force probe differs", cdfg.name()));
        }
    }
    counters.candidate_muxes += result.managed_muxes().len();
    counters.accepted_muxes += result.accepted_muxes().len();
    Ok(result)
}

/// One sweep prefix, computed the way the engine computes it.
fn prefix(
    cdfg: &Cdfg,
    scenario: &Scenario,
    t: &mut Tracer,
    counters: &mut Counters,
) -> Result<PowerManagementResult, String> {
    let latency = scenario.effective_latency();
    let request = t.request(cdfg.name());
    let options = match scenario.scheduler {
        SchedulerKind::ForceDirected => PowerManagementOptions::with_latency(latency),
        SchedulerKind::List => {
            let minimum = t
                .time("sched.hyper", request, || hyper::minimum_resources(cdfg, latency))
                .map_err(|e| e.to_string())?;
            let limited = ResourceConstraint::Limited(minimum);
            let _ = t.time("sched.list", request, || {
                list::schedule_with_latency(cdfg, &limited, latency)
            });
            PowerManagementOptions::with_resources(latency, limited)
        }
    };
    if scenario.reorder {
        t.time("pmsched.reordered", request, || {
            pmsched::algorithm::power_manage_reordered(cdfg, &options, REORDER_LIMIT)
        })
        .map_err(|e| e.to_string())
    } else {
        power_manage_probed(cdfg, &options, request, t, counters)
    }
}

/// The metrics of one scenario from its prefix, as the engine derives them.
fn scenario_metrics(
    cdfg: &Cdfg,
    scenario: &Scenario,
    result: &PowerManagementResult,
    gate_spec: Option<engine::GateLevelSpec>,
    t: &mut Tracer,
) -> Result<ScenarioMetrics, String> {
    let probs = select_probabilities(result, scenario.branch_model);
    let savings = result.savings_with(&probs, &OpWeights::paper_power());
    let classes = [OpClass::Mux, OpClass::Comp, OpClass::Add, OpClass::Sub, OpClass::Mul];
    let gate = match gate_spec {
        None => None,
        Some(spec) => {
            let options = GateLevelOptions::new(scenario.effective_latency())
                .samples(spec.samples)
                .seed(spec.seed);
            let request = t.request(cdfg.name());
            let report = t
                .time("power.gate_level", request, || {
                    gate_level_with_result(cdfg, result, &options)
                })
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
        expected: classes.map(|class| savings.expected(class)),
        power_reduction: savings.reduction_percent,
        extra_registers: pipeline_register_estimate(
            result,
            scenario.latency,
            scenario.pipeline_depth,
        ),
        gate,
    })
}

/// Replays a phase-one report scenario by scenario, sharing prefixes the
/// way the engine's cache does; returns how many records differ.
fn replay_sweep(
    engine: &Engine,
    report: &SweepReport,
    gate_spec: Option<engine::GateLevelSpec>,
    prefixes: &mut BTreeMap<(String, u32, SchedulerKind, bool), Arc<PowerManagementResult>>,
    t: &mut Tracer,
    counters: &mut Counters,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for record in &report.records {
        let scenario = &record.scenario;
        let cdfg = engine.circuit(&scenario.circuit).expect("swept circuits are registered");
        let key = (
            scenario.circuit.clone(),
            scenario.effective_latency(),
            scenario.scheduler,
            scenario.reorder,
        );
        let result = match prefixes.get(&key) {
            Some(result) => Ok(Arc::clone(result)),
            None => prefix(cdfg, scenario, t, counters).map(|r| {
                let r = Arc::new(r);
                prefixes.insert(key, Arc::clone(&r));
                r
            }),
        };
        let replayed = result.and_then(|r| scenario_metrics(cdfg, scenario, &r, gate_spec, t));
        if replayed != record.outcome {
            mismatches.push(format!("replayed sweep scenario {scenario:?} differs"));
        }
    }
    mismatches
}

/// Replays one circuit's walk through the layers' public functions.
fn replay_walk(
    cdfg: &Cdfg,
    options: &ExploreOptions,
    t: &mut Tracer,
    counters: &mut Counters,
) -> CircuitExploration {
    let VoltagePolicy::PerOp(preset) = options.voltage else {
        unreachable!("the design workload explores per-op voltages")
    };
    let request = t.request(cdfg.name());
    let critical_path = cdfg.critical_path_length();
    let weights = OpWeights::paper_power();
    let area_model = AreaModel::new();
    let table = preset.table();
    let levels = table.slack_levels();
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for budget in critical_path..=options.ceiling.resolve(critical_path) {
        let pm_options = PowerManagementOptions::with_latency(budget);
        let point =
            power_manage_probed(cdfg, &pm_options, request, t, counters).and_then(|result| {
                let probs = select_probabilities(&result, options.branch_model);
                let activation = result.activation(&probs);
                let pm = result.cdfg();
                let weight = |n: NodeId| {
                    weights.weight(pm.node(n).expect("live node").op.class())
                        * activation.probability(n)
                };
                let picked = t
                    .time("sched.dvs", request, || {
                        sched::dvs::distribute_slack(
                            pm,
                            result.latency(),
                            &levels,
                            &weight,
                            &mut sched::dvs::Workspace::new(),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let assignment = VoltageAssignment::from_levels(picked.levels().to_vec());
                let estimate = t
                    .time("power.energy", request, || {
                        voltage_scaled_estimate(&result, &probs, &weights, &table, &assignment)
                    })
                    .map_err(|e| e.to_string())?;
                let area = t
                    .time("binding.datapath", request, || {
                        Datapath::build_partitioned(pm, result.schedule(), &|n| picked.level_of(n))
                            .map(|datapath| area_model.estimate(&datapath).total())
                    })
                    .map_err(|e| e.to_string())?;
                Ok(ExplorePoint {
                    budget,
                    schedule_steps: result.schedule().num_steps(),
                    pm_muxes: result.managed_mux_count(),
                    shutdown_reduction: estimate.shutdown_reduction_percent,
                    slowdown_reduction: estimate.slowdown_reduction_percent,
                    combined_reduction: estimate.combined_reduction_percent,
                    energy: estimate.scaled_weighted,
                    area,
                    on_front: false,
                })
            });
        match point {
            Ok(point) => points.push(point),
            Err(error) => failures.push((budget, error)),
        }
    }
    gate::mark_front(&mut points);
    CircuitExploration { circuit: cdfg.name().to_owned(), critical_path, points, failures }
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: RunArgs, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup, _) = crate::repeated_setup(|last| {
        if last {
            setup(args.seed, t)
        } else {
            setup(args.seed, &mut Tracer::disabled())
        }
    });
    let generate_ms = t.total_ms("gen.generate");

    // Untraced and traced passes alternate; the difference is the
    // tracing overhead.
    let (mut plain, mut traced, mut explore_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut last = None;
    crate::repeat_for(args.seconds, 2, |i| {
        let p = if i % 2 == 0 { pass(&setup, &mut Tracer::disabled()) } else { pass(&setup, t) };
        check_pass(args.seed, &p, &mut first, &mut out);
        let calibrated = p.sweep_s * p.sweep_factor + p.explore_s * p.explore_factor;
        if i % 2 == 0 {
            plain.push(calibrated);
        } else {
            traced.push(calibrated);
            explore_wall.push(p.explore_s);
        }
        last = Some(p);
    });
    out.line(format!(
        "passes: {} untraced at {:.4} s, {} traced at {:.4} s (calibrated medians)",
        plain.len(),
        median_or_zero(&plain),
        traced.len(),
        median_or_zero(&traced)
    ));
    let last = last.expect("at least two passes");
    let traced_passes = traced.len().max(1) as f64;
    let report_json_ms = t.total_ms("engine.report_json") / traced_passes;

    // Replay phase one and every walk of phase two.
    let mut counters = Counters::default();
    let mut prefixes = BTreeMap::new();
    for (report, spec) in [(&last.sweep, None), (&last.gate, setup.gate_plan.gate_level())] {
        for mismatch in replay_sweep(&last.engine, report, spec, &mut prefixes, t, &mut counters) {
            out.fail(mismatch);
        }
    }
    let options = explore_options();
    let mut walk_ms = Vec::new();
    for (request, explored) in setup.requests.iter().zip(&last.explore.circuits) {
        let id = t.request(&request.circuit);
        let single = t.time("engine.walk", id, || {
            last.engine.explore(std::slice::from_ref(request), &options, 1)
        });
        walk_ms.push(t.durations_us("engine.walk").last().copied().unwrap_or(0.0) / 1e3);
        if single.circuits.first() != Some(explored) {
            out.fail(format!("{}: a single-circuit walk differs from the batch", request.circuit));
        }
        let cdfg = last.engine.circuit(&request.circuit).expect("explored circuits are registered");
        let replayed = replay_walk(cdfg, &options, t, &mut counters);
        if &replayed != explored {
            out.fail(format!("{}: the replayed walk differs from the engine's", request.circuit));
        }
    }
    out.line(format!(
        "replay: {} sweep prefixes and {} walks reproduced the engine's reports ({} mismatches)",
        prefixes.len(),
        walk_ms.len(),
        out.failed
    ));

    let nodes: usize = setup
        .batch
        .iter()
        .map(|b| b.cdfg.node_count())
        .chain(circuits::all_benchmarks().iter().map(|b| b.cdfg.node_count()))
        .sum();
    let cache = last.engine.cache_stats();
    out.set("gen.generate_ms", generate_ms);
    out.set("cdfg.nodes", nodes as f64);
    out.set("sched.force_ms", t.total_ms("sched.force"));
    out.set("sched.force_calls", counters.force_calls as f64);
    out.set("sched.list_ms", t.total_ms("sched.list"));
    out.set("sched.hyper_ms", t.total_ms("sched.hyper"));
    out.set("sched.dvs_ms", t.total_ms("sched.dvs"));
    out.set("pmsched.power_manage_ms", t.total_ms("pmsched.power_manage"));
    out.set("pmsched.reordered_ms", t.total_ms("pmsched.reordered"));
    out.set("pmsched.analyze_all_ms", t.total_ms("pmsched.analyze_all"));
    out.set(
        "pmsched.accepted_ratio",
        counters.accepted_muxes as f64 / counters.candidate_muxes.max(1) as f64,
    );
    out.set("binding.datapath_ms", t.total_ms("binding.datapath"));
    out.set("power.energy_ms", t.total_ms("power.energy"));
    out.set("power.gate_level_ms", t.total_ms("power.gate_level"));
    out.set("engine.walk_ms_p50", median_or_zero(&walk_ms));
    out.set("engine.walk_ms_max", walk_ms.iter().copied().fold(0.0, f64::max));
    out.set(
        "engine.pool_efficiency",
        walk_ms.iter().sum::<f64>() / (WORKERS as f64 * median_or_zero(&explore_wall) * 1e3),
    );
    out.set("engine.cache_hit_ratio", cache.hit_rate());
    out.set("engine.report_json_ms", report_json_ms);
    out.set("engine.report_bytes", (last.sweep_json.len() + last.explore_json.len()) as f64);
    out.set("trace.overhead_pct", crate::overhead_pct(&traced, &plain));
    out
}
