//! Workspace-level integration tests for the scenario-sweep engine: the
//! paper's golden points must survive the trip through plan expansion, the
//! work-stealing pool and the memo cache, and the experiment harness must
//! agree with the engine it is now built on.

use engine::{BranchModel, Engine, Scenario, SchedulerKind, SweepPlan};

/// Figure 2 through the engine: `|a - b|` at three control steps manages
/// exactly one multiplexor and one of the two subtractions disappears from
/// the expected counts (mirrors `golden_numbers.rs`, which pins the same
/// facts on the direct path).
#[test]
fn engine_reproduces_the_figure_2_golden_point() {
    let plan = SweepPlan::builder().case("abs_diff", 3).build().unwrap();
    let report = Engine::new().run(&plan, 2);
    let metrics = report.records[0].metrics().expect("abs_diff@3 is feasible");
    assert_eq!(metrics.pm_muxes, 1, "Figure 2 manages exactly one multiplexor");
    assert!((metrics.expected[3] - 1.0).abs() < 1e-9, "one subtraction per sample");
    assert!((metrics.expected[1] - 1.0).abs() < 1e-9, "the comparison always runs");
    assert!(metrics.power_reduction > 0.0);

    // Figure 1: at two control steps nothing can be gated.
    let plan = SweepPlan::builder().case("abs_diff", 2).build().unwrap();
    let report = Engine::new().run(&plan, 1);
    assert_eq!(report.records[0].metrics().unwrap().pm_muxes, 0);
}

/// The Table II rows produced through the engine match the direct
/// per-circuit API for the paper's headline circuit orderings.
#[test]
fn engine_backed_table2_keeps_the_paper_ordering() {
    let rows = experiments::table2().expect("table II sweep succeeds");
    assert_eq!(rows.len(), 10);
    let find = |circuit: &str, steps: u32| {
        rows.iter()
            .find(|r| r.circuit == circuit && r.control_steps == steps)
            .unwrap_or_else(|| panic!("{circuit}@{steps} present"))
    };
    let vender = find("vender", 6);
    let dealer = find("dealer", 6);
    let gcd = find("gcd", 7);
    assert!(vender.power_reduction > dealer.power_reduction);
    assert!(dealer.power_reduction > gcd.power_reduction);
}

/// The CI smoke matrix: every dimension except pipelining/cordic, two
/// worker threads, zero failures, and the aggregates cover every circuit.
#[test]
fn small_full_matrix_runs_clean_on_two_threads() {
    let plan = experiments::sweep::full_matrix_plan(true).unwrap();
    let engine = Engine::new();
    let report = engine.run(&plan, 2);
    let stats = engine.cache_stats();
    assert_eq!(report.failure_count(), 0);
    let circuits: Vec<&str> = report.summaries.iter().map(|s| s.circuit.as_str()).collect();
    assert_eq!(circuits, ["dealer", "gcd", "vender"]);
    assert!(stats.lookups() >= report.records.len() as u64);
    // Emitters stay consistent with the record count.
    assert_eq!(report.to_csv().lines().count(), report.records.len() + 1);
}

/// Scenario dimensions compose: a pipelined, reordered, list-scheduled,
/// biased-model scenario executes end to end and shares its prefix with the
/// equivalent unpipelined scenario at the same effective latency.
#[test]
fn composed_scenarios_share_prefixes_across_factorings() {
    let engine = Engine::new();
    let composed = SweepPlan::builder()
        .case("gcd", 5)
        .schedulers([SchedulerKind::List])
        .pipeline_depths([2])
        .reorder([true])
        .branch_models([BranchModel::biased(200)])
        .build()
        .unwrap();
    let report = engine.run(&composed, 1);
    let metrics = report.records[0].metrics().expect("composed scenario runs");
    assert_eq!(metrics.effective_latency, 10);

    let factored = SweepPlan::builder()
        .case("gcd", 10)
        .schedulers([SchedulerKind::List])
        .reorder([true])
        .build()
        .unwrap();
    let report = engine.run(&factored, 1);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "gcd@10 reuses the (gcd, 10, list, reorder) prefix");
    assert_eq!(
        report
            .record_for(&Scenario::new("gcd", 10).scheduler(SchedulerKind::List).reorder(true))
            .unwrap()
            .metrics()
            .unwrap()
            .pm_muxes,
        metrics.pm_muxes
    );
}
