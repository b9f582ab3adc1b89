//! The benchmark's own tests: seeded inputs repeat, the percentile helper
//! keeps ten samples beyond its tail, and the correctness gate catches a
//! corrupted report.

use engine::{BudgetCeiling, BudgetPolicy, Engine, ExploreOptions, ExploreRequest};
use perfbench::inputs::{design_batch, online_spec, service_inputs};
use perfbench::serve::{verdict, JobCase};
use perfbench::{gate, stats};
use service::{JobSpec, JobState};

/// Every circuit of a batch, rendered as DOT.
fn rendered(batch: &[circuits::Benchmark]) -> Vec<String> {
    batch
        .iter()
        .map(|b| format!("{} {:?}\n{}", b.name, b.control_steps, cdfg::dot::to_dot(&b.cdfg)))
        .collect()
}

#[test]
fn one_seed_generates_identical_inputs_twice() {
    for seed in [0, 7, u64::MAX] {
        let batch = design_batch(seed).expect("the design batch generates");
        assert_eq!(rendered(&batch), rendered(&design_batch(seed).expect("generates")));
        assert_eq!(service_inputs(seed), service_inputs(seed));
        let spec = online_spec(seed);
        assert_eq!(spec, online_spec(seed));
        let (pool_a, events_a) = gen::stream(&spec).expect("stream generates");
        let (pool_b, events_b) = gen::stream(&spec).expect("stream generates");
        assert_eq!(events_a, events_b);
        assert_eq!(rendered(&pool_a), rendered(&pool_b));
    }
    let batch = |seed| rendered(&design_batch(seed).expect("generates"));
    assert_ne!(batch(1), batch(2), "seeds matter");
    assert_ne!(service_inputs(1), service_inputs(2));
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
    // 100 samples: p99 has 1 beyond, p95 has 5, p90 exactly 10.
    let tail = stats::tail(&sample(100)).expect("a tail");
    assert_eq!((tail.permille, tail.value, tail.beyond), (900, 90.0, 10));
    // 1000 samples: p99.9 has 1 beyond, p99 exactly 10.
    let tail = stats::tail(&sample(1000)).expect("a tail");
    assert_eq!((tail.permille, tail.value, tail.beyond), (990, 990.0, 10));
    // 20 000 samples reach p99.9 with 20 beyond.
    let tail = stats::tail(&sample(20_000)).expect("a tail");
    assert_eq!((tail.permille, tail.beyond), (999, 20));
    assert_eq!(tail.label(), "p99.9");
    // Ten samples leave no percentile with ten beyond.
    assert_eq!(stats::tail(&sample(10)), None);
    // A cap keeps a tail at or below the asked percentile.
    assert_eq!(stats::tail_at_most(&sample(20_000), 900).map(|t| t.permille), Some(900));
    // Order of the input does not matter.
    let mut shuffled = sample(100);
    shuffled.reverse();
    assert_eq!(stats::tail(&shuffled), stats::tail(&sample(100)));
}

#[test]
fn a_corrupted_exploration_front_is_caught() {
    let options = ExploreOptions::new()
        .policy(BudgetPolicy::FullRange)
        .ceiling(BudgetCeiling::CriticalPathPlus(4));
    let report = Engine::new().explore(&[ExploreRequest::new("dealer")], &options, 1);
    assert_eq!(gate::check_fronts(&report), Ok(()));
    let mut corrupted = report.clone();
    let point = &mut corrupted.circuits[0].points[1];
    point.on_front = !point.on_front;
    assert!(gate::check_fronts(&corrupted).is_err());
    let mut failed = report;
    failed.circuits[0].failures.push((99, "injected".to_owned()));
    assert!(gate::check_fronts(&failed).is_err());
}

#[test]
fn a_corrupted_pinned_report_is_caught() {
    let plan = experiments::sweep::full_matrix_plan(false).expect("the paper matrix builds");
    let gate_plan = experiments::table3::table3_plan(experiments::table3::DEFAULT_SAMPLES);
    let engine = Engine::new();
    let json = engine.run(&plan, 2).to_json() + &engine.run(&gate_plan, 2).to_json();
    assert_eq!(gate::check_pin("sweep", 42, &json), Ok(()), "the pinned sweep still matches");
    let corrupted = json.replacen("\"power_reduction\": ", "\"power_reduction\": 1", 1);
    assert!(gate::check_pin("sweep", 42, &corrupted).is_err());
}

#[test]
fn a_corrupted_service_report_is_caught() {
    let case = JobCase {
        label: "small".to_owned(),
        spec: JobSpec::sweep(Vec::new()),
        reference: "{\"records\": []}\n".to_owned(),
    };
    let done = JobState::Done;
    assert_eq!(verdict(&case, done, Some(0), Some("{\"records\": []}\n")), None);
    assert!(verdict(&case, done, Some(0), Some("{\"records\": [ ]}\n")).is_some());
    assert!(verdict(&case, done, Some(1), Some("{\"records\": []}\n")).is_some());
    assert!(verdict(&case, JobState::Failed, Some(0), None).is_some());
}
