//! Emits `BENCH_dvs.json`: the performance trajectory of the
//! fine-grained DVS path.
//!
//! Three measurements per run, identity-guarded before any clock starts:
//!
//! * **Kernel walks** — `sched::dvs::distribute_slack` over a budget
//!   walk with one warm `sched::dvs::Workspace` against a fresh
//!   workspace per call.  Before timing, every case asserts the warm
//!   levels and energy are bit-identical to fresh-buffer runs, and on
//!   the small circuits that the greedy energy never beats the exact
//!   branch-and-bound reference (`sched::dvs::exact_min_energy`).
//! * **Explorer overhead** — `Engine::explore` with the per-op
//!   five-level policy against the global quadratic curve on the same
//!   batch: what the slack-distribution kernel plus the partitioned
//!   binding cost on top of the single-curve path.
//! * **Explorer parallelism** — the per-op exploration at 1 vs. N
//!   threads, with a byte-identity assert on the JSON.
//!
//! `--quick` takes fewer repetitions and a smaller batch (see the crate
//! docs for the command line).

use std::fmt::Write as _;

use bench::{time_best, Args};
use cdfg::Cdfg;
use engine::{
    BudgetCeiling, BudgetPolicy, Engine, ExploreOptions, ExploreRequest, VoltagePolicy,
    VoltagePreset,
};
use gen::{Family, GenSpec};
use pmsched::{power_manage, OpWeights, PowerManagementOptions, SelectProbabilities};
use power::DelayScaling;

struct Case {
    name: String,
    kind: &'static str,
    cdfg: Cdfg,
    span: u32,
    /// Run the exact reference here (small circuits only).
    exact: bool,
}

fn cases() -> Vec<Case> {
    let mut cases = vec![Case {
        name: "abs_diff".to_owned(),
        kind: "paper",
        cdfg: circuits::abs_diff(),
        span: 4,
        exact: true,
    }];
    for bench in circuits::all_benchmarks() {
        if bench.name == "cordic" {
            continue; // 48-step budgets would dominate the whole emitter
        }
        cases.push(Case {
            name: bench.name.clone(),
            kind: "paper",
            cdfg: bench.cdfg,
            span: 8,
            exact: false,
        });
    }
    let mut small = GenSpec::new(Family::MuxTree, 11, 1);
    small.depth = 2;
    let bench = gen::generate_one(&small, 0).expect("valid spec");
    cases.push(Case {
        name: bench.name,
        kind: "generated",
        cdfg: bench.cdfg,
        span: 4,
        exact: true,
    });
    for (width, depth) in [(6, 8), (12, 16), (16, 24)] {
        let mut spec = GenSpec::new(Family::RandomDag, 11, 1);
        spec.width = width;
        spec.depth = depth;
        let bench = gen::generate_one(&spec, 0).expect("valid spec");
        cases.push(Case {
            name: bench.name,
            kind: "generated",
            cdfg: bench.cdfg,
            span: 8,
            exact: false,
        });
    }
    cases
}

fn main() {
    let args = Args::parse();
    let reps = if args.quick { 3 } else { 15 };

    let weights = OpWeights::paper_power();
    let table = VoltagePreset::FiveLevel.table();
    let levels = table.slack_levels();

    let mut rows = String::new();
    let mut max_gap = 0.0f64;
    for case in cases() {
        let Case { name, kind, cdfg, span, exact } = case;
        let cp = cdfg.critical_path_length();
        let budgets = cp..=cp + span;

        // One managed result per budget — the kernel's real input.
        let mut inputs = Vec::new();
        for budget in budgets.clone() {
            let options = PowerManagementOptions::with_latency(budget);
            let result = power_manage(&cdfg, &options).expect("feasible");
            inputs.push(result);
        }
        let probs = SelectProbabilities::fair();

        // Identity guards: warm == fresh at every budget; greedy >= exact
        // on the small circuits.
        let mut warm_ws = sched::dvs::Workspace::new();
        for result in &inputs {
            let pm = result.cdfg();
            let activation = result.activation(&probs);
            let node_weight = |n: cdfg::NodeId| {
                let class = pm.node(n).expect("live node").op.class();
                weights.weight(class) * activation.probability(n)
            };
            let warm = sched::dvs::distribute_slack(
                pm,
                result.latency(),
                &levels,
                &node_weight,
                &mut warm_ws,
            )
            .expect("feasible");
            let mut fresh_ws = sched::dvs::Workspace::new();
            let fresh = sched::dvs::distribute_slack(
                pm,
                result.latency(),
                &levels,
                &node_weight,
                &mut fresh_ws,
            )
            .expect("feasible");
            assert_eq!(warm.levels(), fresh.levels(), "warm/fresh levels diverged on {name}");
            assert_eq!(
                warm.energy().to_bits(),
                fresh.energy().to_bits(),
                "warm/fresh energy diverged on {name}"
            );
            if exact {
                let reference =
                    sched::dvs::exact_min_energy(pm, result.latency(), &levels, &node_weight)
                        .expect("feasible");
                let tolerance = 1e-9 * reference.energy().abs().max(1.0);
                assert!(
                    warm.energy() >= reference.energy() - tolerance,
                    "greedy beat the exact reference on {name}"
                );
                if reference.energy() > 0.0 {
                    let gap = (warm.energy() - reference.energy()) / reference.energy() * 100.0;
                    max_gap = max_gap.max(gap);
                }
            }
        }

        let fresh_s = time_best(reps, || {
            for result in &inputs {
                let pm = result.cdfg();
                let activation = result.activation(&probs);
                let node_weight = |n: cdfg::NodeId| {
                    let class = pm.node(n).expect("live node").op.class();
                    weights.weight(class) * activation.probability(n)
                };
                let mut ws = sched::dvs::Workspace::new();
                let _ = sched::dvs::distribute_slack(
                    pm,
                    result.latency(),
                    &levels,
                    &node_weight,
                    &mut ws,
                )
                .expect("feasible");
            }
        });
        let warm_s = time_best(reps, || {
            let mut ws = sched::dvs::Workspace::new();
            for result in &inputs {
                let pm = result.cdfg();
                let activation = result.activation(&probs);
                let node_weight = |n: cdfg::NodeId| {
                    let class = pm.node(n).expect("live node").op.class();
                    weights.weight(class) * activation.probability(n)
                };
                let _ = sched::dvs::distribute_slack(
                    pm,
                    result.latency(),
                    &levels,
                    &node_weight,
                    &mut ws,
                )
                .expect("feasible");
            }
        });
        let speedup = fresh_s / warm_s.max(1e-12);

        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "    {{\"name\": \"{name}\", \"kind\": \"{kind}\", \"nodes\": {}, \
             \"budgets\": {}, \"fresh_us\": {:.1}, \"warm_us\": {:.1}, \"speedup\": {:.2}, \
             \"exact_checked\": {exact}}}",
            cdfg.node_count(),
            span + 1,
            fresh_s * 1e6,
            warm_s * 1e6,
            speedup,
        )
        .expect("string write");
    }

    // Explorer overhead and parallelism on a generated batch.
    let batch_size = if args.quick { 8 } else { 24 };
    let mut spec = GenSpec::new(Family::RandomDag, 11, batch_size);
    spec.width = 8;
    spec.depth = 10;
    let batch = gen::generate(&spec).expect("valid spec");
    let requests: Vec<ExploreRequest> =
        batch.iter().map(|b| ExploreRequest::new(b.name.as_str())).collect();
    let mut engine = Engine::new();
    engine.register_benchmarks(batch);
    let global_options = ExploreOptions::new()
        .policy(BudgetPolicy::FullRange)
        .ceiling(BudgetCeiling::CriticalPathPlus(6))
        .voltage(VoltagePolicy::Global(DelayScaling::Quadratic));
    let per_op_options = global_options.voltage(VoltagePolicy::PerOp(VoltagePreset::FiveLevel));
    let threads = std::thread::available_parallelism().map_or(4, usize::from).min(8);
    let baseline = engine.explore(&requests, &per_op_options, 1);
    assert_eq!(
        baseline.to_json(),
        engine.explore(&requests, &per_op_options, threads).to_json(),
        "per-op explorer output must be thread-count independent"
    );
    let global_s = time_best(reps.min(5), || {
        let _ = engine.explore(&requests, &global_options, 1);
    });
    let per_op_s = time_best(reps.min(5), || {
        let _ = engine.explore(&requests, &per_op_options, 1);
    });
    let parallel_s = time_best(reps.min(5), || {
        let _ = engine.explore(&requests, &per_op_options, threads);
    });
    let overhead = per_op_s / global_s.max(1e-12);
    let parallel_speedup = per_op_s / parallel_s.max(1e-12);

    let json = format!(
        "{{\n  \"bench\": \"dvs_kernel\",\n  \"schema\": 1,\n  \"mode\": \"{}\",\n  \
         \"reps\": {reps},\n  \"preset\": \"per-op-5\",\n  \"cases\": [\n{rows}\n  ],\n  \
         \"max_exact_gap_percent\": {max_gap:.4},\n  \
         \"explorer\": {{\"circuits\": {batch_size}, \"threads\": {threads}, \
         \"global_ms\": {:.1}, \"per_op_ms\": {:.1}, \"per_op_overhead\": {overhead:.2}, \
         \"parallel_ms\": {:.1}, \"parallel_speedup\": {parallel_speedup:.2}}}\n}}\n",
        if args.quick { "quick" } else { "full" },
        global_s * 1e3,
        per_op_s * 1e3,
        parallel_s * 1e3,
    );

    args.emit(
        &json,
        &format!(
            "per-op explorer {overhead:.2}x the global path, {parallel_speedup:.2}x on \
             {threads} threads, max exact gap {max_gap:.4}%"
        ),
    );
}
