//! Engine determinism: the sweep report — down to its emitted bytes — must
//! not depend on the thread count, on repetition, or on whether the memo
//! cache was cold or warm.

use engine::{BranchModel, Engine, SchedulerKind, SweepPlan};

/// A matrix that exercises every dimension (both schedulers, pipelining,
/// reordering, biased branch models) plus a deliberately infeasible latency
/// so error records are covered too.
fn mixed_plan() -> SweepPlan {
    SweepPlan::builder()
        .circuits(["dealer", "gcd", "vender", "abs_diff"])
        .latencies([3, 5, 6])
        .schedulers([SchedulerKind::ForceDirected, SchedulerKind::List])
        .pipeline_depths([1, 2])
        .reorder([false, true])
        .branch_models([BranchModel::Fair, BranchModel::biased(300)])
        .build()
        .expect("valid plan")
}

/// The pool deals each worker one contiguous block of the plan.  At 3
/// threads a block boundary cuts a run of prefix-sharing scenarios, and
/// the latency-3 × depth-2 scenarios share their prefix with the
/// latency-6 × depth-1 ones, which are not adjacent; neither may change
/// the report or the cold engine's cache counters.
#[test]
fn report_is_byte_identical_across_thread_counts() {
    let plan = mixed_plan();
    let reference_engine = Engine::new();
    let reference = reference_engine.run(&plan, 1);
    let reference_stats = reference_engine.cache_stats();
    let reference_json = reference.to_json();
    let reference_csv = reference.to_csv();
    assert_eq!(reference.records.len(), plan.len());

    for threads in [2, 3, 8] {
        let engine = Engine::new();
        let report = engine.run(&plan, threads);
        assert_eq!(report, reference, "records differ at {threads} threads");
        assert_eq!(report.to_json(), reference_json, "json differs at {threads} threads");
        assert_eq!(report.to_csv(), reference_csv, "csv differs at {threads} threads");
        assert_eq!(engine.cache_stats(), reference_stats, "cache stats at {threads} threads");
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let plan = mixed_plan();
    let engine = Engine::new();
    let first = engine.run(&plan, 4);
    let second = engine.run(&plan, 4);
    assert_eq!(first, second);
    assert_eq!(first.to_json(), second.to_json());
}

#[test]
fn cached_runs_equal_cold_runs() {
    let plan = mixed_plan();

    // Cold: a fresh engine per run.
    let cold = Engine::new().run(&plan, 2);

    // Warm: the same engine runs the plan twice; the second run is answered
    // almost entirely from the prefix cache.
    let engine = Engine::new();
    let warm_first = engine.run(&plan, 2);
    let misses_after_first = engine.cache_stats().misses;
    let warm_second = engine.run(&plan, 2);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, misses_after_first, "second run must not recompute any prefix");
    assert!(stats.hits > 0, "cache was actually exercised");

    assert_eq!(cold, warm_first, "first warm run equals a cold run");
    assert_eq!(cold, warm_second, "cached results never change the report");
    assert_eq!(cold.to_json(), warm_second.to_json());
    assert_eq!(cold.to_csv(), warm_second.to_csv());
}

#[test]
fn gate_level_reports_are_deterministic_too() {
    // Gate-level simulation is seeded; the full report including simulated
    // power must be identical across thread counts.
    let plan = SweepPlan::builder()
        .circuits(["dealer", "abs_diff"])
        .latencies([3, 6])
        .gate_level(100, 0xDAC96)
        .build()
        .unwrap();
    let one = Engine::new().run(&plan, 1);
    let many = Engine::new().run(&plan, 8);
    assert_eq!(one, many);
    assert_eq!(one.to_json(), many.to_json());
}
